"""The atomic writer's failure paths: a failed write names the path, an
exception from the chunks propagates, and in both cases the target keeps
its old bytes and no temporary file is left beside it.  And the heap
release: glibc's ``malloc_trim(0)`` where it exists, else nothing.  And
the pairwise sum, which adds in numpy's order."""

import errno
import io
import math
import os
import platform
import random
import re

import numpy as np
import pytest

from coneshrink import numutil
from coneshrink.errors import ExportIOError
from coneshrink.numutil import atomic_write_chunks, atomic_write_text

OLD = "old contents\n"


@pytest.fixture
def target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text(OLD, encoding="utf-8")
    return path


def assert_untouched(path):
    assert path.read_text(encoding="utf-8") == OLD
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


class _FullDisk(io.TextIOWrapper):
    """A text file whose second write fails as on a full disk."""

    def write(self, text):
        if getattr(self, "written", False):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.written = True
        return super().write(text)


def test_oserror_during_write_names_the_path(target, monkeypatch):
    monkeypatch.setattr(numutil.os, "fdopen",
                        lambda fd, *args, **kwargs: _FullDisk(io.FileIO(fd, "w"),
                                                              encoding="utf-8"))
    with pytest.raises(ExportIOError, match=f"^writing {re.escape(str(target))}: ") as info:
        atomic_write_chunks(target, iter(["first\n", "second\n", "third\n"]))
    assert info.value.path == str(target)
    assert info.value.__cause__.errno == errno.ENOSPC
    assert_untouched(target)


def test_oserror_from_the_rename_names_the_path(target, monkeypatch):
    def no_rename(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    monkeypatch.setattr(numutil.os, "replace", no_rename)
    with pytest.raises(ExportIOError, match=f"^writing {re.escape(str(target))}: "):
        atomic_write_text(target, "new contents\n")
    assert_untouched(target)


def test_exception_from_the_chunks_propagates(target):
    def chunks():
        yield "first\n"
        raise ValueError("no more text")

    with pytest.raises(ValueError, match="no more text"):
        atomic_write_chunks(target, chunks())
    assert_untouched(target)


def test_chunks_are_written_in_turn(target):
    assert atomic_write_chunks(target, (f"{i}\n" for i in range(3))) == str(target)
    assert target.read_text(encoding="utf-8") == "0\n1\n2\n"
    assert sorted(p.name for p in target.parent.iterdir()) == [target.name]


def test_release_free_heap_trims_with_a_zero_pad(monkeypatch):
    calls = []
    monkeypatch.setattr(numutil, "_malloc_trim", lambda: calls.append)
    numutil.release_free_heap()
    assert calls == [0]


def test_release_free_heap_without_malloc_trim_does_nothing(monkeypatch):
    monkeypatch.setattr(numutil, "_malloc_trim", lambda: None)
    assert numutil.release_free_heap() is None


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_malloc_trim_is_found_on_glibc():
    assert callable(numutil._malloc_trim())
    numutil.release_free_heap()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1031])
def test_pairwise_sum_has_the_bits_of_numpy_sum(n):
    # magnitudes over ten decades, so that the order of the additions shows
    rng = random.Random(n)
    for _ in range(20):
        xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-5, 5) for _ in range(n)]
        assert numutil.pairwise_sum(xs).hex() == float(np.sum(np.array(xs, dtype=float))).hex()


def test_pairwise_sum_propagates_inf_and_nan():
    assert numutil.pairwise_sum([1.0, math.inf] * 10) == math.inf
    assert math.isnan(numutil.pairwise_sum([math.inf, 1.0] * 10 + [-math.inf]))
