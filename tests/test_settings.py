"""Every count and open-interval setting is refused with one message per kind."""

import math
import pickle

import numpy as np
import pytest

from qpcrkin.kinetics import Kinetics, Precision, iterate_mean_map
from qpcrkin.simulate import (
    simulate_coupled_replicates,
    simulate_reaction,
    simulate_replicates,
)
from qpcrkin.limit_law import LimitEnsemble, ancestor_cdf, ancestor_density, sample_limit
from qpcrkin.inference import (
    Observation,
    copy_profile,
    estimate_from_trajectory,
    observe,
    observe_rows,
)
from qpcrkin.experiments import ScenarioSpec

KIN = Kinetics(0.5, 1000.0)


def _scan(z_max):
    traj = simulate_reaction(Kinetics.from_exponent(0.5, 20), 2, 28, seed=3)
    report = estimate_from_trajectory(traj, 0.05, v_known=0.5, run_mle=True, z_max=z_max)
    return report.diagnostics["mle_profile"]


def _spec(**settings):
    return ScenarioSpec(kind="coupling", **settings).to_json_dict()


# every integer setting with a lower bound: its name in the message, the
# bound, and a call that passes it the value
COUNT_ENTRY_POINTS = [
    pytest.param("z0", 1, lambda n: simulate_reaction(KIN, n, 5, seed=1), id="simulate-z0"),
    pytest.param("n_cycles", 1, lambda n: simulate_reaction(KIN, 1, n, seed=1),
                 id="simulate-n_cycles"),
    pytest.param("replicates", 1, lambda n: simulate_replicates(KIN, 1, 5, n, seed=1),
                 id="simulate-replicates"),
    pytest.param("m", 1, lambda n: _spec(m=n), id="ScenarioSpec-m"),
    pytest.param("z0", 1, lambda n: _spec(z0=n), id="ScenarioSpec-z0"),
    pytest.param("replicates", 1, lambda n: _spec(replicates=n), id="ScenarioSpec-replicates"),
    pytest.param("shift", 0, lambda n: _spec(shift=n), id="ScenarioSpec-shift"),
    pytest.param("extra_cycles", 0, lambda n: _spec(extra_cycles=n),
                 id="ScenarioSpec-extra_cycles"),
    pytest.param("entry 1 of m_values", 1, lambda n: _spec(m_values=[8, n]),
                 id="ScenarioSpec-m_values"),
    pytest.param("z", 1, lambda n: LimitEnsemble([1.0, 2.0], v=0.5, z=n, n_gen=3),
                 id="LimitEnsemble-z"),
    pytest.param("n_gen", 1, lambda n: LimitEnsemble([1.0, 2.0], v=0.5, z=1, n_gen=n),
                 id="LimitEnsemble-n_gen"),
    pytest.param("z", 1, lambda n: sample_limit(0.5, z=n, count=8, seed=1), id="sample_limit-z"),
    pytest.param("count", 1, lambda n: sample_limit(0.5, count=n, seed=1),
                 id="sample_limit-count"),
    pytest.param("n_hit", 0, lambda n: Observation(0.05, 64.0, n, [0.1, 0.2]),
                 id="Observation-n_hit"),
    pytest.param("n", 0, lambda n: iterate_mean_map(0.1, n, KIN), id="iterate_mean_map"),
    pytest.param("z_max", 1, lambda n: ancestor_density(1.0, 0.5, n), id="ancestor_density"),
    pytest.param("z_max", 1, lambda n: ancestor_cdf([0.5, 2.0], 0.5, n), id="ancestor_cdf"),
    pytest.param("z_max", 1, lambda n: copy_profile(1.0, 0.5, n), id="copy_profile"),
    pytest.param("z_max", 1, _scan, id="estimate_from_trajectory"),
    pytest.param("max_iter", 1, lambda n: Precision(1e-4, max_iter=n), id="Precision"),
]

# every setting that must lie in (0, 1), and a call that passes it
OPEN_UNIT_ENTRY_POINTS = [
    pytest.param("rho", lambda x: _spec(rho=x), id="ScenarioSpec-rho"),
    pytest.param("rho", lambda x: Observation(x, 64.0, 2, [0.1, 0.2]).rho, id="Observation"),
    pytest.param("rho", lambda x: observe_rows([[0.01, 0.1, 0.2]], x), id="observe_rows"),
    pytest.param("rho", lambda x: observe(simulate_reaction(KIN, 1, 20, seed=1), x).kappas,
                 id="observe"),
    pytest.param("gamma", lambda x: _spec(gamma=x), id="ScenarioSpec-gamma"),
    pytest.param("gamma", lambda x: simulate_coupled_replicates(KIN, 1, 5, 3, gamma=x, seed=1),
                 id="simulate_coupled_replicates"),
    pytest.param("c_exponent", lambda x: _spec(c_exponent=x), id="ScenarioSpec-c_exponent"),
]


class TestCounts:
    @pytest.mark.parametrize("bad", [True, 2.5, 3.0, "below"])
    @pytest.mark.parametrize("name,least,call", COUNT_ENTRY_POINTS)
    def test_refused_with_one_message(self, name, least, call, bad):
        # True passed `n >= 1` and 3.0 passed `float(n).is_integer()`
        if bad == "below":
            bad = least - 1
        with pytest.raises(ValueError,
                           match=rf"^{name} must be an integer of at least {least}, got {bad!r}$"):
            call(bad)

    @pytest.mark.parametrize("name,least,call", COUNT_ENTRY_POINTS)
    def test_numpy_integers_accepted(self, name, least, call):
        # the same bits and the same Python types, so a numpy count is
        # stored as an int
        n = least + 3
        assert pickle.dumps(call(np.int64(n))) == pickle.dumps(call(n))


class TestOpenUnit:
    @pytest.mark.parametrize("bad,shown", [(True, "True"), (math.nan, "nan"), (0.0, "0.0"),
                                           (1.0, "1.0")])
    @pytest.mark.parametrize("name,call", OPEN_UNIT_ENTRY_POINTS)
    def test_refused_with_one_message(self, name, call, bad, shown):
        with pytest.raises(ValueError, match=rf"^{name} must be in \(0, 1\), got {shown}$"):
            call(bad)

    @pytest.mark.parametrize("name,call", OPEN_UNIT_ENTRY_POINTS)
    def test_numpy_floats_accepted(self, name, call):
        np.testing.assert_equal(call(np.float64(0.05)), call(0.05))
