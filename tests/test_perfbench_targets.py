"""Every entry point perfbench traces still exists.

``perfbench/tracing.py`` wraps the functions its ``TARGETS`` name, by
``module:qualname``; a refactor that renames or removes one would
otherwise surface only in a traced perfbench run. This resolves each
name the way the tracer does, without installing anything."""

import importlib

import pytest

from perfbench.tracing import TARGETS


@pytest.mark.parametrize("name,path", TARGETS,
                         ids=[path for _, path in TARGETS])
def test_traced_entry_point_resolves(name, path):
    module_name, qualname = path.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        # The tracer replaces the method in the class's own namespace.
        target = vars(getattr(module, class_name)).get(attr)
    else:
        target = getattr(module, qualname, None)
    assert callable(target), f"{name}: {path} does not resolve"
