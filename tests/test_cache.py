import multiprocessing

import pytest

from cubesum.cache import CacheFormatError, CoefficientCache
from cubesum.modular import hecke_expand


def test_cache_roundtrip(tmp_path):
    cache = CoefficientCache(tmp_path / "c.txt")
    coeffs = cache.get(40)
    assert coeffs[1] == 1 and coeffs[3] == 3 and coeffs[7] == -2
    reloaded = cache.load()
    assert reloaded == coeffs


def test_cache_file_format(tmp_path):
    cache = CoefficientCache(tmp_path / "c.txt")
    cache.get(10)
    lines = (tmp_path / "c.txt").read_text().splitlines()
    assert lines[0] == "cubesum-cache v1 convention=hecke max=10"
    assert lines[1] == "1 1"
    assert len(lines) == 11


def test_fewer_than_one_coefficient_is_refused_before_reading(tmp_path):
    cache = CoefficientCache(tmp_path / "c.txt")
    cache.get(10)
    cache.load = None  # calling it would raise TypeError
    for max_n in (0, -4):
        with pytest.raises(ValueError, match="at least 1"):
            cache.get(max_n)


def test_cache_version_mismatch_forces_regeneration(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("cubesum-cache v0 convention=hecke max=5\n1 1\n2 9\n3 9\n4 9\n5 9\n")
    cache = CoefficientCache(path)
    assert cache.load() is None  # stale header ignored
    coeffs = cache.get(5)
    assert coeffs[2] == 0  # regenerated, not the bogus 9


def test_cache_convention_mismatch(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("cubesum-cache v1 convention=other max=2\n1 1\n2 0\n")
    assert CoefficientCache(path).load() is None


def _write_repeatedly(path, max_n, rounds):
    cache = CoefficientCache(path)
    for _ in range(rounds):
        cache.write({n: max_n for n in range(1, max_n + 1)})
        cache.load()


def test_concurrent_writers_leave_a_whole_file(tmp_path):
    # two writers of different lengths: a shared temporary file would let the
    # shorter payload land on top of the longer one
    path = tmp_path / "c.txt"
    writers = [multiprocessing.Process(target=_write_repeatedly, args=(path, n, 200))
               for n in (5, 60)]
    for w in writers:
        w.start()
    for w in writers:
        w.join()
    assert [w.exitcode for w in writers] == [0, 0]
    coeffs = CoefficientCache(path).load()
    assert set(coeffs.values()) == {len(coeffs)}
    assert not list(tmp_path.glob("*.tmp"))


def test_cache_corruption_detected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("cubesum-cache v1 convention=hecke max=3\n1 1\n2 zero\n3 3\n")
    with pytest.raises(CacheFormatError):
        CoefficientCache(path).load()
    path.write_text("cubesum-cache v1 convention=hecke max=3\n1 1\n3 3\n")
    with pytest.raises(CacheFormatError):
        CoefficientCache(path).load()


def test_cache_extension_and_clear(tmp_path):
    cache = CoefficientCache(tmp_path / "c.txt")
    small = cache.get(10)
    big = cache.get(60)  # forces regeneration at the larger size
    assert {n: big[n] for n in small} == small
    assert cache.load() == big
    assert cache.clear()
    assert not cache.clear()
    assert cache.load() is None


def test_deleting_cache_reproduces_identical_values(tmp_path):
    cache = CoefficientCache(tmp_path / "c.txt")
    first = cache.get(80)
    cache.clear()
    second = cache.get(80)
    assert first == second
    series = hecke_expand(80)
    assert all(series[n] == first[n] for n in range(1, 81))
