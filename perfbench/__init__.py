"""The repository benchmark: ``POST /validate`` end to end, split by layer.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
