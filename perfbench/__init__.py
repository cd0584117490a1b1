"""The repository benchmark: three workloads driven through public
functions, end-to-end metrics from untraced runs and a per-layer
breakdown from a separate traced run.  Entry point: ``run.py``."""
