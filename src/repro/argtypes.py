"""Argparse value types shared by the package's command-line entry points."""

from __future__ import annotations

import argparse


def positive_int(text: str) -> int:
    """An integer >= 1; anything else is a usage error (exit status 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


__all__ = ["positive_int"]
