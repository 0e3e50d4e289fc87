"""Layered benchmark of the Branch Runahead simulator (see README.md)."""
