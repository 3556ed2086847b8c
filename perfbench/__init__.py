"""Layer-ledger benchmark of smartreader_ray; run ``python3 perfbench/run.py``."""
