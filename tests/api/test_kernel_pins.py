"""Cache addresses and result provenance under each routing kernel.

The kernel is a speed choice: it never changes a number, but it tags
every cache address and every result's ``meta.kernel``, so a batched
run can never serve, or be mistaken for, a bitmask one.  Each scenario
below runs through the public facade into a fresh cache directory and
compares the entries it wrote against pinned sha256 literals: an
address that moves orphans every warm cache, and an address (or a
``meta.kernel``) tagged with the other kernel means the request did not
reach the code that ran.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import api

KERNELS = ("bitmask", "batched")

#: ``traffic_cell``: v(2, 2, 3, 1), x = 1, 60 steps, seed 0
TRAFFIC = {
    "bitmask": "70d11f2195f03bb3ca821fe0227dcf3675f506bea99fa8416e5d4e3d4d00624b",
    "batched": "ddf34d1bedf5a7db5ba782d5eb1e945445f42e8e7260f75148b37aa06717883d",
}
#: ``adversary_cell``: the same point's single adversary restart
ADVERSARY = {
    "bitmask": "1ba19a48a10b8c64fb2cba919e9ed86c3a2b910c684bfa31c739490b7919246e",
    "batched": "56265373d8b24b694c5890b9ccf35035b005d541afc5574979db4fa0ef853a4b",
}
#: ``adaptive_round``: round 0 of the same point under ``ROUND_ONLY``
ROUND = {
    "bitmask": "72820c6e0a215de788b10e7ce6a1eca0c4b11284d9804d624f4d79691545e5c8",
    "batched": "fb8db617ff8da2a42fd1daf797e39dfef5856eed2da2c4b9adb26cecb1d57f2e",
}
#: ``is_blockable``: v(2, 2, 1, 1), x = 1, default budget, canonicalized
BLOCKABLE = {
    "bitmask": "c03bb4503216c50acc1f499553114c81db20043cc8d30e64d01203003c9529b6",
    "batched": "f8429684a0a4077aec74c23c2c32c323687ec4d0672bc4a0b0ee01f36af076c0",
}

FIXED = api.UniformConfig(steps=60, seeds=(0,))
ROUND_ONLY = api.PrecisionConfig(half_width=0.5, min_rounds=1, max_rounds=1)


def entries(directory: Path) -> set[str]:
    return {path.stem for path in directory.glob("*.pkl")}


@pytest.mark.parametrize("kernel", KERNELS)
class TestCacheAddresses:
    def test_sweep_traffic_cell(self, tmp_path, kernel):
        [estimate] = api.sweep(
            2, 2, 1, [3], x=1, traffic=FIXED,
            execution=api.ExecConfig(cache_dir=str(tmp_path)),
            search=api.SearchConfig(kernel=kernel),
        )
        assert entries(tmp_path) == {TRAFFIC[kernel]}
        assert (estimate.attempts, estimate.blocked) == (31, 0)

    def test_blocking_traffic_cell(self, tmp_path, kernel):
        api.blocking(
            2, 2, 3, 1, x=1, traffic=FIXED,
            execution=api.ExecConfig(cache_dir=str(tmp_path)),
            search=api.SearchConfig(kernel=kernel),
        )
        assert entries(tmp_path) == {TRAFFIC[kernel]}

    def test_adversary_cell(self, tmp_path, kernel):
        api.sweep(
            2, 2, 1, [3], x=1,
            traffic=api.UniformConfig(
                steps=60, seeds=(0,), adversarial=True, adversary_seeds=1
            ),
            execution=api.ExecConfig(cache_dir=str(tmp_path)),
            search=api.SearchConfig(kernel=kernel),
        )
        assert entries(tmp_path) == {TRAFFIC[kernel], ADVERSARY[kernel]}

    @pytest.mark.parametrize("verb", ["sweep", "blocking"])
    def test_adaptive_round(self, tmp_path, kernel, verb):
        execution = api.ExecConfig(cache_dir=str(tmp_path), precision=ROUND_ONLY)
        search = api.SearchConfig(kernel=kernel)
        traffic = api.UniformConfig(steps=60)
        if verb == "sweep":
            [estimate] = api.sweep(
                2, 2, 1, [3], x=1, traffic=traffic, execution=execution,
                search=search,
            )
        else:
            estimate = api.blocking(
                2, 2, 3, 1, x=1, traffic=traffic, execution=execution,
                search=search,
            )
        assert entries(tmp_path) == {ROUND[kernel]}
        assert (estimate.attempts, estimate.blocked) == (126, 0)

    def test_is_blockable_cell(self, tmp_path, kernel):
        """:class:`ExactMinimal` carries no ``meta`` envelope, so this
        address is where ``exact_m`` records the kernel it ran under."""
        api.exact_m(
            2, 2, 1, x=1, m_max=1,
            execution=api.ExecConfig(cache_dir=str(tmp_path)),
            search=api.SearchConfig(kernel=kernel),
        )
        assert entries(tmp_path) == {BLOCKABLE[kernel]}


@pytest.mark.parametrize("kernel", KERNELS)
class TestMetaKernel:
    def test_blocking(self, kernel):
        estimate = api.blocking(
            2, 2, 3, 1, x=1, traffic=FIXED,
            search=api.SearchConfig(kernel=kernel),
        )
        assert estimate.meta.kernel == kernel
        assert estimate.meta.plan == {
            "cache_hits": 0, "dispatched": 1, "executor": "serial",
            "reason": "", "requested_jobs": 1, "resolved_jobs": 1, "units": 1,
        }

    def test_sweep(self, kernel):
        estimates = api.sweep(
            2, 2, 1, [2, 3], x=1, traffic=FIXED,
            search=api.SearchConfig(kernel=kernel),
        )
        assert [e.meta.kernel for e in estimates] == [kernel, kernel]

    def test_adaptive_point_and_curve(self, kernel):
        execution = api.ExecConfig(precision=ROUND_ONLY)
        search = api.SearchConfig(kernel=kernel)
        traffic = api.UniformConfig(steps=60)
        point = api.blocking(
            2, 2, 3, 1, x=1, traffic=traffic, execution=execution,
            search=search,
        )
        [swept] = api.sweep(
            2, 2, 1, [3], x=1, traffic=traffic, execution=execution,
            search=search,
        )
        assert point.meta.kernel == swept.meta.kernel == kernel


def test_concurrent_requests_keep_their_own_kernel(monkeypatch, tmp_path):
    """Two threads sweep at once, one per kernel, both inside the curve
    at the same time: each result and each cache entry must carry its
    own request's kernel, never the other thread's."""
    import threading

    curve = api._blocking_curve
    gate = threading.Barrier(2, timeout=60)

    def rendezvous(*args, **kwargs):
        gate.wait()
        try:
            return curve(*args, **kwargs)
        finally:
            gate.wait()

    monkeypatch.setattr(api, "_blocking_curve", rendezvous)
    results: dict[str, list] = {}
    errors: list[BaseException] = []

    def run(kernel: str) -> None:
        try:
            results[kernel] = api.sweep(
                2, 2, 1, [3], x=1, traffic=FIXED,
                execution=api.ExecConfig(cache_dir=str(tmp_path / kernel)),
                search=api.SearchConfig(kernel=kernel),
            )
        except BaseException as exc:  # surfaced below, not lost in a thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in KERNELS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors
    for kernel in KERNELS:
        [estimate] = results[kernel]
        assert estimate.meta.kernel == kernel
        assert (estimate.attempts, estimate.blocked) == (31, 0)
        assert entries(tmp_path / kernel) == {TRAFFIC[kernel]}
