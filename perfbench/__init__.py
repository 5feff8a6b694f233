"""The serving benchmark (entry point: ``python3 perfbench/run.py``)."""
