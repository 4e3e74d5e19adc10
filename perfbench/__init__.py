"""Repository benchmark: paper workloads end to end and layer by layer (see README.md)."""
