"""End-to-end benchmark of live site daemons (see ``run.py``)."""
