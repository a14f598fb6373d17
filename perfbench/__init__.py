"""Benchmark of the splr command-line paths; see README.md."""
