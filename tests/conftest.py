"""Fixtures shared by the test modules."""

import json

import numpy as np
import pytest


def _rewrite_checkpoint(src, dst, change):
    """Write to `dst` the checkpoint archive at `src` after
    change(members), which edits in place the dict of its members:
    "header" is the decoded JSON header (set it to bytes to write those
    bytes instead), the others are the arrays; a member it deletes is
    left out and one it adds is written."""
    with np.load(src) as npz:
        members = {name: npz[name] for name in npz.files}
    members["header"] = json.loads(members["header"].tobytes())
    change(members)
    head = members.get("header")
    if isinstance(head, dict):
        head = json.dumps(head).encode("utf-8")
    if isinstance(head, bytes):
        members["header"] = np.frombuffer(head, np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **members)


@pytest.fixture
def rewrite_checkpoint():
    """rewrite_checkpoint(src, dst, change): a checkpoint with its header
    keys or members edited (see _rewrite_checkpoint)."""
    return _rewrite_checkpoint
