import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import qmc

import deltaconvex
import deltaconvex._sobol as sobol
from deltaconvex import NormedSpace
from deltaconvex._sobol import ScrambledSobol
from deltaconvex.regularize import _unit_ball_pool

# scipy warns on every first draw whose size is not a power of 2
pytestmark = pytest.mark.filterwarnings("ignore:The balance properties")


def _old_pool(space, m, seed):
    """The pool as built with scipy before the in-package generator."""
    sob = qmc.Sobol(d=space.dim, scramble=True, seed=seed)
    pts = np.empty((0, space.dim))
    nbatch = 1
    while pts.shape[0] < m:
        nbatch = max(nbatch * 2, 2 * m)
        draw = 2.0 * sob.random(nbatch) - 1.0
        pts = np.vstack([pts, draw[space.norm(draw) <= 1.0]])
    return pts[:m]


class TestScrambledSobol:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 40])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize("draws", [(1,), (100,), (256, 1000), (1, 5)])
    def test_bit_identical_to_scipy(self, d, seed, draws):
        ref = qmc.Sobol(d, scramble=True, seed=seed)
        gen = ScrambledSobol(d, seed)
        for n in draws:
            want, got = ref.random(n), gen.random(n)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    def test_empty_draw_keeps_position(self):
        ref = qmc.Sobol(3, scramble=True, seed=5)
        gen = ScrambledSobol(3, 5)
        assert gen.random(0).shape == (0, 3)
        assert np.array_equal(gen.random(8), ref.random(8))
        assert gen.random(0).shape == (0, 3)
        assert np.array_equal(gen.random(3), ref.random(3))

    def test_points_lie_in_unit_cube(self):
        pts = ScrambledSobol(4, 9).random(4096)
        assert pts.min() >= 0.0 and pts.max() < 1.0
        # 2^12 points: every coordinate is balanced over the two halves
        assert ((pts < 0.5).sum(axis=0) == 2048).all()

    def test_missing_table_is_a_clear_error(self, monkeypatch):
        monkeypatch.setattr(sobol.importlib.util, "find_spec",
                            lambda name: None)
        sobol._table.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="direction numbers"):
                sobol._table()
        finally:
            monkeypatch.undo()
            sobol._table.cache_clear()
        assert sobol._table()[0].shape[0] > 40


class TestUnitBallPool:
    @pytest.mark.parametrize("space", [NormedSpace(2, 1.0),
                                       NormedSpace(3, 2.0),
                                       NormedSpace(2, 4.0),
                                       NormedSpace(3, math.inf),
                                       NormedSpace(4, 1.0)],
                             ids=["l1^2", "l2^3", "l4^2", "linf^3", "l1^4"])
    @pytest.mark.parametrize("m", [160, 512])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_scipy_construction(self, space, m, seed):
        # l1^4 keeps 1/24 of the cube, so its pool chains four draws
        pool = _unit_ball_pool(space, m, seed)
        assert np.array_equal(pool, _old_pool(space, m, seed))


def test_import_leaves_out_scipy_stats():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(deltaconvex.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "import deltaconvex, deltaconvex.cli\n"
        "sp = deltaconvex.NormedSpace(2, 2.0)\n"
        "f = deltaconvex.corpus_function(sp, 'norm')\n"
        "r = deltaconvex.regularize_quadratic(f, 9.0, np.array([0.3, -0.2]),"
        " sp)\n"
        "assert r.evaluations > 0\n"
        "print(sorted(k for k in sys.modules if k.startswith('scipy.stats')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
