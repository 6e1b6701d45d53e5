"""Child process for ``setup_s``: import adastrat, build one workload's config, report ready.

Usage: python3 perfbench/setup_probe.py <workload>
The parent times from spawning this process to reading its ``ready`` line.
"""
import sys

from workloads import setup

setup(sys.argv[1])
print("ready", flush=True)
