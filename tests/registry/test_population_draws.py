"""The population's draws replayed over raw words equal numpy's per-call draws.

:class:`~repro.registry.names.WordDraws` replays ``random()`` and
``integers(0, n)`` one ``random_raw()`` word at a time, while numpy's own
``exponential`` and ``poisson`` run on the same generator in between.
The oracles here are numpy's per-call draws and a copy of the
population generator as it was written before the replay: one numpy
call per draw and one name-factory call per label.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.registry.domain import NEVER
from repro.registry.names import NameFactory, WordDraws
from repro.registry.population import DomainPopulation, PopulationConfig
from repro.registry.tld import TLD_RF, TLD_RU
from repro.rng import derive_rng

#: ``integers(0, n)`` bounds: 6 is the registrar draw (threshold 4, so
#: the Lemire retry can run); 2**31 + 1 rejects about half its draws;
#: numpy answers n = 1 without a draw.
BOUNDS = [1, 2, 6, 27, 100, 2**31 + 1]

OPS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("exponential"), st.floats(0.5, 2000.0)),
    st.tuples(st.just("poisson"), st.floats(0.0, 50.0)),
)


def next_draws(rng):
    """Whole-word draws that follow the replay on the same generator."""
    return [rng.random(), rng.exponential(3.0), int(rng.poisson(4.0)), rng.random()]


class TestWordDraws:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        primed=st.booleans(),
        ops=st.lists(OPS, max_size=150),
    )
    def test_interleaved_draws_match_numpy(self, seed, primed, ops):
        expected = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        if primed:  # the replay starts from a buffered high half
            assert rng.integers(0, 27) == expected.integers(0, 27)
        draws = WordDraws(rng)
        for op in ops:
            if op[0] == "random":
                assert draws.random() == expected.random()
            elif op[0] == "integers":
                assert draws.integers(op[1]) == int(expected.integers(0, op[1]))
            else:  # numpy's own whole-word draws, on the shared generator
                ours = getattr(rng, op[0])(op[1])
                assert ours == getattr(expected, op[0])(op[1])
        assert next_draws(rng) == next_draws(expected)

    @pytest.mark.parametrize("half", [0, 715827883, 2**31, 715827884])
    def test_registrar_bound_rejection(self, half):
        # A 32-bit value x is rejected for n = 6 when (6 * x) mod 2**32 < 4;
        # random words almost never give one, so it is set as the buffered
        # half (the last value is accepted, as a control).
        def primed():
            rng = np.random.default_rng(5)
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, half
            rng.bit_generator.state = state
            return rng

        expected = primed()
        draws = WordDraws(primed())
        assert [draws.integers(6) for _ in range(5)] == [
            int(expected.integers(0, 6)) for _ in range(5)
        ]

    def test_non_pcg64_refused(self):
        with pytest.raises(TypeError):
            WordDraws(np.random.Generator(np.random.MT19937(1)))


def per_call_generate(cfg):
    """The population columns with one numpy call per draw.

    The generator as written before the replay: a closure per domain,
    ``rng.random()`` for the TLD, ``rng.exponential`` for the lifetime,
    ``rng.integers(0, n)`` for the registrar, and one name-factory call
    per label.
    """
    rng = derive_rng(cfg.seed, "registry", "population")
    names = NameFactory(derive_rng(cfg.seed, "registry", "names"))
    labels, tlds, created, deleted, registrars = [], [], [], [], []
    lifetime_scale = 1.0 / max(cfg.daily_death_rate, 1e-9)

    def append(created_day):
        is_rf = rng.random() < cfg.rf_share
        tlds.append(TLD_RF if is_rf else TLD_RU)
        labels.append(names.next_cyrillic() if is_rf else names.next_ascii())
        deleted_day = created_day + 1 + int(rng.exponential(lifetime_scale))
        if deleted_day > cfg.horizon_days + 365:
            deleted_day = NEVER
        created.append(created_day)
        deleted.append(deleted_day)
        registrars.append(int(rng.integers(0, len(cfg.registrars))))

    for label, tld in cfg.reserved_names:
        registrars.append(len(labels) % len(cfg.registrars))
        labels.append(label)
        tlds.append(tld)
        created.append(-2000)
        deleted.append(NEVER)
    for _ in range(cfg.initial_count):
        age = int(rng.exponential(900.0)) + 1
        append(-age)
    for index, deleted_day in enumerate(deleted):
        if deleted_day <= 0:
            deleted[index] = 1 + int(rng.exponential(lifetime_scale))
    net = cfg.daily_birth_rate - cfg.daily_death_rate
    for day in range(cfg.horizon_days):
        target_active = cfg.initial_count * math.exp(net * day)
        expected = cfg.daily_birth_rate * target_active
        for _ in range(int(rng.poisson(expected))):
            append(day)
    return labels, tlds, created, deleted, registrars


def pinned_config():
    """The 1:2500 config of ``test_population.py``'s pin, reserved names too."""
    from repro.sim.conflict import ConflictScenarioConfig

    reserved = [(f"sanctioned-entity-{i:03d}", TLD_RU) for i in range(107)]
    return PopulationConfig(
        initial_count=ConflictScenarioConfig(scale=2500).initial_count,
        reserved_names=reserved + [("Пример", "рф")],
    )


@pytest.mark.parametrize(
    "config",
    [
        pinned_config(),
        PopulationConfig(seed=7, initial_count=3000, rf_share=0.3),
        PopulationConfig(seed=3, initial_count=500, daily_death_rate=0.004),
        PopulationConfig(seed=4, initial_count=400, registrars=["REG.RU"]),
    ],
    ids=["pinned-1:2500", "seed7-rf30", "seed3-short-lives", "one-registrar"],
)
def test_columns_match_per_call_generator(config):
    assert DomainPopulation(config)._generate() == per_call_generate(config)
