"""Whole event streams pinned as sha256 digests.

A ``(workload, model, shape, seed, antithetic)`` cell names one exact
sequence of setups and teardowns: the serial simulator, the batched
stream compiler, cached results and the golden values all rest on
that.  The digests below were computed once from the set-based
generator and written in as literals, so a change to the generator's
bookkeeping that moves a single RNG call -- or reorders a population
handed to ``choice``/``sample`` -- fails here, whichever workload it
reaches.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from typing import Any

import pytest

from repro.core.models import MulticastModel
from repro.switching.generators import TrafficEvent
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    UniformConfig,
)
from repro.workloads.keys import stream_rng

CONFIGS = {
    "uniform": UniformConfig(),
    "hotspot": HotspotConfig(zipf_s=1.5),
    "heavytail_fanout": HeavyTailFanoutConfig(alpha=0.9),
    "poisson_erlang": PoissonErlangConfig(offered_erlangs=6.0),
}

#: name -> (n_ports, k, max_fanout, steps, seeds); the last is the
#: v(3,70,m,63) endpoint space of the wide benchmark curve, kept short
SHAPES = {
    "9x2": (9, 2, None, 300, (0, 1, 2)),
    "16x2": (16, 2, None, 300, (0, 1, 2)),
    "12x3-fanout2": (12, 3, 2, 300, (0, 1, 2)),
    "210x63": (210, 63, None, 60, (0,)),
}


def feed(digest: Any, events: Iterable[TrafficEvent]) -> None:
    """Hash each event as (kind, id, source, sorted destinations)."""
    for event in events:
        connection = event.connection
        source = connection.source
        destinations = sorted(
            (d.port, d.wavelength) for d in connection.destinations
        )
        record = (
            event.kind,
            event.connection_id,
            (source.port, source.wavelength),
            destinations,
        )
        digest.update(repr(record).encode() + b"\n")


def stream_digest(events: Iterable[TrafficEvent]) -> str:
    """The sha256 hex digest of one event stream."""
    digest = hashlib.sha256()
    feed(digest, events)
    return digest.hexdigest()


PINS = {
    "uniform/9x2/MSW/plain": "16036f6659fe48f39b6aa141603262bdb213e1c344a999860906ddab3e4d0351",
    "uniform/9x2/MSW/antithetic": "edcd8ece3498b4389d1e97b8fb3c7165ee6ba336fb6ec6e3676fc732ce986fe4",
    "uniform/9x2/MSDW/plain": "12fcfae90f32592a55bbb0dea1fbbadc81226588a34e187b4bc02f35be1bb7c5",
    "uniform/9x2/MSDW/antithetic": "9ba13bce4c397ac8f6db32a1b5d03eba30caf54a6465a7e025bfc10d25216164",
    "uniform/9x2/MAW/plain": "a25abcf97a05797e5a9ecbe4159ea82f42a00070426fb66e46ef10a4b2c0f349",
    "uniform/9x2/MAW/antithetic": "de8dc3be1aeb82f04cd9bf9aad3d371c608497472b1f8ef92dae383c6d809659",
    "uniform/16x2/MSW/plain": "e4e18f8d013f60d1437a8f04bb92eec0487576d547fad859286a9db09730d04b",
    "uniform/16x2/MSW/antithetic": "8e69862de6d5475bdbc5d440b93a16df48e587d46c25aaf5fb6aa0e2e68b0cee",
    "uniform/16x2/MSDW/plain": "b9c2523d9a2a139feb048593d52530cca5e52e8611601e92507cc136dd3f4626",
    "uniform/16x2/MSDW/antithetic": "da6d258327f9e021e3aa3b5613b039cca1fb564f8863a011ec03e9575238586d",
    "uniform/16x2/MAW/plain": "2832ded9579e1b841aaf1932644c9f5d4b05c3252d0dfebd8721f027728b6d29",
    "uniform/16x2/MAW/antithetic": "10a3997aef1aba7aecfe04f934fd38cd7a93ddcf0fa62a0c06d7029fa68297d5",
    "uniform/12x3-fanout2/MSW/plain": "059616ab9efd3da77d8f9f08494225be5b8a861f49de0920662f7d68a1a0bd55",
    "uniform/12x3-fanout2/MSW/antithetic": "50eacee656680098b0f2099ee1f13efa2b0d2d221bd740dc87518396a51bd44f",
    "uniform/12x3-fanout2/MSDW/plain": "3a00334df365f6d2c1f338a8a03797f8a7a79c35dfab53dcbfc1aba4e9fcc1d1",
    "uniform/12x3-fanout2/MSDW/antithetic": "a3dcafebd98b62784ddaf2c96ec550be79d0638ba27e6351c5ead802de66bc77",
    "uniform/12x3-fanout2/MAW/plain": "3558bea7b35112ec72acca6867c18a64d276d1d21aa6d12bc456f8015aca1d05",
    "uniform/12x3-fanout2/MAW/antithetic": "03dc8ce995e84f3c47ac3d31248770635b52bd56d426bb358a53a876b1708a11",
    "uniform/210x63/MSW/plain": "d07075f8a2c19ad8e93991a4add10b98637cd034d4e42cb47281c33fee0f090e",
    "uniform/210x63/MSW/antithetic": "92a4ae3dfacc930c0a2d681fb846ac0d2eca254e7403b9a73a8e4566ac4a3e00",
    "uniform/210x63/MSDW/plain": "81a16f963d4797000665dc7d6c199edfcf0221456142e7f1bea8a5187385e972",
    "uniform/210x63/MSDW/antithetic": "0d3f0c0aaedd531f171037f9304ac0a0c74822e4253466c6c4e2b0cbc15fe472",
    "uniform/210x63/MAW/plain": "f1ba4133a86abe1070a60df99f2c120525820a53e0f8dc80f23955bf71bc84b0",
    "uniform/210x63/MAW/antithetic": "762b3b4b7d67d222b08f302e777fc48be30739734aa54208910491879d524eee",
    "hotspot/9x2/MSW/plain": "575f7363a585dfb93f67fc8284e7e08734b9c6708653478badf2f44b157c6a50",
    "hotspot/9x2/MSW/antithetic": "94dc5e5cfc4aac5e28961652d2b4242573487a8d2c850a7bf329d304ce382faa",
    "hotspot/9x2/MSDW/plain": "4e54083c2468527770ba6a419fdb5934afa83abf233de0c22333fbd297b9188e",
    "hotspot/9x2/MSDW/antithetic": "b1f1e698d415c4c87bd1e12a56e3fc15a3205073380b530bf514c64b1c7e376b",
    "hotspot/9x2/MAW/plain": "b35a525514a818ee3cfebceb7d032f993046dfd995451dffb7c6b0bfdaa1afe5",
    "hotspot/9x2/MAW/antithetic": "8ef7f183e95670a38ca9dec45b093aebf749d6ebc5d16362c9224322bb933db8",
    "hotspot/16x2/MSW/plain": "9c247b327f9af4d49dd84934aa4c7b930642c60468f51cec6a3dc5b821c7ab69",
    "hotspot/16x2/MSW/antithetic": "bc9d438d84c0f22a6c7f281ea0d3b69ac6a9499955600691a4bc3ca7b6ac32c1",
    "hotspot/16x2/MSDW/plain": "a8ca9bb686261a8e346228452e41c7ef3232a141db91ffa8af70bc9e04b639e7",
    "hotspot/16x2/MSDW/antithetic": "c344b61a00a192e54896a083b4e0c4fb8d2016ea0ff63ec1aafadebeb1f5e725",
    "hotspot/16x2/MAW/plain": "45c477efaed0771999dfc488f8927f4155901de009280b592da0cc4280c21047",
    "hotspot/16x2/MAW/antithetic": "69aab74462d7f2fac1389296a7dc450b4abb3ebb78c2ec0e270d7a07fb51c865",
    "hotspot/12x3-fanout2/MSW/plain": "29088167224284ec7c8fe87b8d83027821cd9d7921f4831acad7edbefca28452",
    "hotspot/12x3-fanout2/MSW/antithetic": "22d7249a23d2bedf3d7276a79608acda1d4b618d8f822f284d90a7daa9fb8472",
    "hotspot/12x3-fanout2/MSDW/plain": "f98d3b41f93fb1782efd36a27ae7a817d54e759d46bbe924582e056863532469",
    "hotspot/12x3-fanout2/MSDW/antithetic": "571049954ea294b52e50e2dde0e04f3c330d600db86be9ade6431e95a3f1fedc",
    "hotspot/12x3-fanout2/MAW/plain": "c229758cd50144497dd7a3bcb651d926799bee61ad2ac6241f9442700fa24c5f",
    "hotspot/12x3-fanout2/MAW/antithetic": "82feaa213beaa5a560b6c0ae5e1a93ce2b70f705c28135c8fbc65acab4a1cd50",
    "hotspot/210x63/MSW/plain": "ffa261b8533984448e0cf7d05cc6a0f72857271d46e54412bf85b57a9414c5c0",
    "hotspot/210x63/MSW/antithetic": "9f6bc70ae2cc9f29463c77aefad7318178d8a34fdf5c15872862f1e39ee265dc",
    "hotspot/210x63/MSDW/plain": "a64d1f0d685a57d245de4749735f54092959b5482f19a16e4a33b32402f69aa8",
    "hotspot/210x63/MSDW/antithetic": "37569f0a5b858ec34c8e65861c5a2fb61794c9e5984c75bb279f2f0562b7d146",
    "hotspot/210x63/MAW/plain": "854c3098f970a5ab4f27a391204027794e2c51c4bc70b01d971e9ecc2b3c6adc",
    "hotspot/210x63/MAW/antithetic": "1a5244a42f9181298c6a83f00174140d63c7c0734322fce26080693479a49143",
    "heavytail_fanout/9x2/MSW/plain": "b8f1c4f5968afc08d83e46fd485d9f35ee57533ded3bb400af2f0172e0e651c1",
    "heavytail_fanout/9x2/MSW/antithetic": "15a03ba8477606a2fdc3326e14e8b71388a6f42fb571ae0b6c3affce24d6259e",
    "heavytail_fanout/9x2/MSDW/plain": "419b4e9789380ed8325ec5948daa225169236b7598608f415f42f71fce9b775a",
    "heavytail_fanout/9x2/MSDW/antithetic": "f9b9e1d9a8b842470de5e3fcde91d9fb7cfc32f7daf993eb44e44b986445d06e",
    "heavytail_fanout/9x2/MAW/plain": "2221c5afbff5ec36968540f61b737bbe004836679e8cdd40186bc85fa344922d",
    "heavytail_fanout/9x2/MAW/antithetic": "8bdf146fd2349617ad608e7ef2922e03237351c72957431fe66c554af427298c",
    "heavytail_fanout/16x2/MSW/plain": "ac8971cf462179c3623258f09ae77dbbc3ecf54952df136d528d9f8fde9e82b6",
    "heavytail_fanout/16x2/MSW/antithetic": "dd49b6514a06cb26a2e8c28bbef96551d9bfc6f366f96ba4681b241e6faa7b87",
    "heavytail_fanout/16x2/MSDW/plain": "cb147780a15ee6f0e6c42259d963968ef36ccae66c8129d2ba0696983d0d360a",
    "heavytail_fanout/16x2/MSDW/antithetic": "686516939899767c4e0b48a800ef1756c4170158618fc0fc12490d9273e174c6",
    "heavytail_fanout/16x2/MAW/plain": "b010a88a80dde76a62b291d77b1863b7dfcf787aee249dab41fe84f1796de100",
    "heavytail_fanout/16x2/MAW/antithetic": "908c915195fcb79eb8b63587ab56e2ca595a6a747994ae637bef42be60b5c03f",
    "heavytail_fanout/12x3-fanout2/MSW/plain": "45de9aaf02d68fcbc8a4eaadac7e13877d680036d8a359511cd9cb284b7da5bb",
    "heavytail_fanout/12x3-fanout2/MSW/antithetic": "2469d3bb90ca774f02634d52f905c82b3734a6ae81732b21495128c47a6550b5",
    "heavytail_fanout/12x3-fanout2/MSDW/plain": "258e2e53df61c11da791f4747953a1350ab458681771e6f7e46afb34a77ed062",
    "heavytail_fanout/12x3-fanout2/MSDW/antithetic": "5627ba9fb87e9ae6eb32eec1e7482c6e4b0a1a2c6a87c383213e8fd89708c69e",
    "heavytail_fanout/12x3-fanout2/MAW/plain": "844bbbb842e956309621faa86006b1366a5d63b657695e7ed087f6dcc1bee9d5",
    "heavytail_fanout/12x3-fanout2/MAW/antithetic": "efb7be18320a986a4573aa9c978e7ea8ec341e972235973eaef1e85b077066cc",
    "heavytail_fanout/210x63/MSW/plain": "25fcf182d6bed6be071ffa77bbe1f2c5a7105da5db73400cd46d7ff2f3a7cf25",
    "heavytail_fanout/210x63/MSW/antithetic": "fe74f2ae2bfa597b95f21dcf9fed436a8e0f880574d39ecfebc3fe3ed06066c3",
    "heavytail_fanout/210x63/MSDW/plain": "25e9420851e7ae60cd21672c8d01152e1e658ec5856b97aa4e27610d449f0b1c",
    "heavytail_fanout/210x63/MSDW/antithetic": "4e4d6a028e7afe57bf6651d67b883220487999656668099b1b822e035ba516fb",
    "heavytail_fanout/210x63/MAW/plain": "b42e3907d5abeb71092adc7bbad80fef58185858c4730a176e7961d6e37911c3",
    "heavytail_fanout/210x63/MAW/antithetic": "320a321396675095da71c9a5c2614d6b4bbf042e5dd79ea86bdfd7a08efb4254",
    "poisson_erlang/9x2/MSW/plain": "1b5d92e7e10a8f1134f47d18ac0dc302672bc94770dcfcc99f65d583e4a3a449",
    "poisson_erlang/9x2/MSW/antithetic": "55f27db4c0c4b73f52a3922ff72348a6ac4e2a839277203285a8021c61229cf3",
    "poisson_erlang/9x2/MSDW/plain": "aa51fea8cfdd8a1dd683f8841aeaf144d3de988aa859657759822e93b15e6309",
    "poisson_erlang/9x2/MSDW/antithetic": "ba494f24575027aafb1550b6e98f8a5f83d9306798e3aebcfa8ad530142aa4a2",
    "poisson_erlang/9x2/MAW/plain": "77c8975cfe0188e4677f6902aec69c80028776219a5ff8414d33b561a9247ff2",
    "poisson_erlang/9x2/MAW/antithetic": "c0923c5eb0e9d4a6a48799f1d2252d2cff038be8f014955efca093ccd6e757a8",
    "poisson_erlang/16x2/MSW/plain": "a7ea56f30067c785a9c63659a8cad5f0dae9462fb1f0e1818e65e0b4e8596887",
    "poisson_erlang/16x2/MSW/antithetic": "357c00515225bb97612cbbfdb5637e010c6385de9ae078debfc9513e0e8ace3a",
    "poisson_erlang/16x2/MSDW/plain": "a9d1d40da32540beb2d493f3d619ec441dd57ad1d4ba02a147d278e5bac9a484",
    "poisson_erlang/16x2/MSDW/antithetic": "7ed7d460296ea7b412ce8bfc21c5173b36759872c298426462dc117c3fe75a9d",
    "poisson_erlang/16x2/MAW/plain": "f0a102100ca7cd714c09d36ef02a3d91d5a56e8f548bcebdf27dbfe8da69a973",
    "poisson_erlang/16x2/MAW/antithetic": "dc3200f06a6e6bf953d22e5f0e50efcbe2f4c186702532061ea8b3a54919829b",
    "poisson_erlang/12x3-fanout2/MSW/plain": "8589fecb621068df86dfaf65e3be78cc5c9ff5c4b822ee0280577984e7b79533",
    "poisson_erlang/12x3-fanout2/MSW/antithetic": "c936fa1dab011d151bd39a42ac120298e9c80655876bd7dfb6e054b2c6449ba2",
    "poisson_erlang/12x3-fanout2/MSDW/plain": "9c26f8d2c3b8197f48593cb0400b4e26fc885efbe3ed3c1c37c6f2f220e473b2",
    "poisson_erlang/12x3-fanout2/MSDW/antithetic": "c2bd4a73971b8cfee2bdb9d465effccf7f4389918cf5316b1935959c3a6b452d",
    "poisson_erlang/12x3-fanout2/MAW/plain": "2bc8afc672d928929d5f40d34ce187f826f339984c9cde2b1d2c9fa13e1390e8",
    "poisson_erlang/12x3-fanout2/MAW/antithetic": "0330e7ed57878f50575ae71e87350249165188302028f848a6e1d6c2d9fdbcb4",
    "poisson_erlang/210x63/MSW/plain": "10ff56a61e52258d4426ba0da9c7ec71ba0a4e9de48fc0d17d5ac9b0fd7dd0cd",
    "poisson_erlang/210x63/MSW/antithetic": "0251f0f83b4bb006f5dba425c40e606534034f3023019fec23d9fb154348df4d",
    "poisson_erlang/210x63/MSDW/plain": "148130f504f0efb97283d3f39e690719b8ce77c757d46378fd9c6b815d5d8695",
    "poisson_erlang/210x63/MSDW/antithetic": "400438b3825a9766503dc035ac2a8e39e3ad9271772ebe575bcb0e4479ae81fe",
    "poisson_erlang/210x63/MAW/plain": "fdfbe71dad471ea2427f717892bf5ac95263b0fe10224f008a2b95345f3af8be",
    "poisson_erlang/210x63/MAW/antithetic": "e6d5efe09d7aae20d27a27e7f3bebcc606a17ed28edf388ea952e75d576e7e63",
}


@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
@pytest.mark.parametrize("model", list(MulticastModel), ids=lambda m: m.value)
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("workload", list(CONFIGS))
def test_stream_matches_its_pin(workload, shape, model, antithetic):
    n_ports, k, max_fanout, steps, seeds = SHAPES[shape]
    digest = hashlib.sha256()
    for seed in seeds:
        feed(
            digest,
            CONFIGS[workload].events(
                model, n_ports, k,
                steps=steps,
                rng=stream_rng(seed, antithetic),
                max_fanout=max_fanout,
            ),
        )
    side = "antithetic" if antithetic else "plain"
    assert digest.hexdigest() == PINS[f"{workload}/{shape}/{model.value}/{side}"]
