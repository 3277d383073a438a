import numpy as np
import pytest

from dsest import (DescriptorSystem, is_partially_causal_detectable,
                   is_partially_impulse_observable, wong_limits)
from dsest import wong
from dsest.linalg import (Subspace, as_matrix, contains, image, intersect, kernel,
                          preimage, subspace_sum)
from dsest.wong import _stabilized, wong_V_at

from conftest import apply_map, random_system


class TestCanonicalExample:
    def test_limits_of_plant_pencil(self, ex_system):
        # With the input included and no output restriction the plant is
        # completely reachable: both limits are the full state space.
        lim = wong_limits(ex_system.E, ex_system.A, ex_system.B, None)
        assert lim.V_star.dim == 4
        assert lim.W_star.dim == 4

    def test_W_chain_grows_one_dim_per_step(self, ex_system):
        lim = wong_limits(ex_system.E, ex_system.A, ex_system.B, None)
        dims = [s.dim for s in lim.W_chain]
        assert dims[:5] == [0, 1, 2, 3, 4]
        assert dims[-1] == 4

    def test_output_restricted_limits(self, ex_system):
        # Restricting to ker C removes the measured (unstable) direction.
        lim = wong_limits(ex_system.E, ex_system.A, None, ex_system.C)
        e1 = Subspace.from_span(np.eye(4)[:, :1])
        assert not contains(lim.W_star, e1)


class TestNilpotentPencil:
    def test_sigma_block(self):
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        A = np.eye(2)
        lim = wong_limits(E, A)
        # V* = 0 (no dynamic solutions), W* = full (pure nilpotent part).
        assert lim.V_star.dim == 0
        assert lim.W_star.dim == 2


class TestInvariants:
    def test_limit_fixed_points_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            sys = random_system(rng, max_dim=4)
            lim = wong_limits(sys.E, sys.A, sys.B, sys.C)
            imB = image(sys.B)
            # V* is a fixed point: A V* <= (E V* + im B), V* <= ker C
            AV = apply_map(sys.A, lim.V_star)
            EV = subspace_sum(apply_map(sys.E, lim.V_star), imB)
            assert contains(EV, AV)
            # W* fixed point: E W* <= A W* + im B
            EW = apply_map(sys.E, lim.W_star)
            AW = subspace_sum(apply_map(sys.A, lim.W_star), imB)
            assert contains(AW, EW)

    def test_chains_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            sys = random_system(rng, max_dim=4)
            lim = wong_limits(sys.E, sys.A, sys.B, sys.C)
            for a, b in zip(lim.W_chain, lim.W_chain[1:]):
                assert contains(b, a)
            for a, b in zip(lim.V_chain, lim.V_chain[1:]):
                assert contains(a, b)

    def test_wong_V_at_matches_chain(self, ex_system):
        lim = wong_limits(ex_system.E, ex_system.A, ex_system.B, None)
        for step in range(len(lim.V_chain)):
            v = wong_V_at(ex_system.E, ex_system.A, ex_system.B, None, step)
            assert v.dim == lim.V_chain[step].dim


def two_loop_wong_limits(E, A, B=None, C=None):
    """wong_limits as two separate loops, one per chain (the reference for
    the shared chain helper)."""
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    m, n = E.shape
    B = np.zeros((m, 0)) if B is None else as_matrix(B, rows=m)
    C = np.zeros((0, n)) if C is None else as_matrix(C, cols=n)
    im_B, ker_C = image(B), kernel(C)

    V_chain = [ker_C]
    for _ in range(n + 1):
        prev = V_chain[-1]
        nxt = intersect(preimage(A, subspace_sum(apply_map(E, prev), im_B)), ker_C)
        V_chain.append(nxt)
        if _stabilized(prev, nxt):
            break

    W_chain = [Subspace.zero(n)]
    for _ in range(n + 1):
        prev = W_chain[-1]
        nxt = intersect(preimage(E, subspace_sum(apply_map(A, prev), im_B)), ker_C)
        W_chain.append(nxt)
        if _stabilized(prev, nxt):
            break
    return V_chain, W_chain


def assert_chains_bitwise_equal(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.ambient_dim == b.ambient_dim
        assert a.basis.shape == b.basis.shape
        assert a.basis.tobytes() == b.basis.tobytes()


class TestSharedChainHelper:
    def test_chains_match_two_loop_version(self, ex_system):
        rng = np.random.default_rng(7)
        systems = [ex_system] + [random_system(rng) for _ in range(300)]
        for sys in systems:
            for B, C in ((sys.B, sys.C), (None, sys.C), (sys.B, None)):
                lim = wong_limits(sys.E, sys.A, B, C)
                V_ref, W_ref = two_loop_wong_limits(sys.E, sys.A, B, C)
                assert_chains_bitwise_equal(lim.V_chain, V_ref)
                assert_chains_bitwise_equal(lim.W_chain, W_ref)
                assert lim.V_star is lim.V_chain[-1]
                assert lim.W_star is lim.W_chain[-1]

    def test_impulse_observability_runs_no_V_chain(self, ex_system,
                                                    monkeypatch):
        forbid_V_chain_with_C(monkeypatch)
        with pytest.raises(AssertionError, match="V chain"):
            wong_limits(ex_system.E, ex_system.A, None, ex_system.C)
        assert is_partially_impulse_observable(ex_system)
        report = is_partially_causal_detectable(ex_system)
        assert report.partially_impulse_observable
        assert report.partially_causal_detectable

    def test_verdicts_unchanged_without_V_chain(self, monkeypatch):
        def answers():
            rng = np.random.default_rng(7)
            out = []
            for _ in range(60):
                sys = random_system(rng)
                report = is_partially_causal_detectable(sys)
                out.append((is_partially_impulse_observable(sys),
                            report.partially_impulse_observable,
                            report.partially_causal_detectable))
            return out

        expected = answers()
        forbid_V_chain_with_C(monkeypatch)
        assert answers() == expected

    def test_pencil_chains_rotate_no_basis(self, monkeypatch):
        # Without B and C, im B = {0} and ker C = R^n: a chain step takes
        # the image, the complement and the kernel, and no SVD re-spans a
        # sum with {0} or a meet with R^n.
        svd, calls = np.linalg.svd, [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        rng = np.random.default_rng(7)
        for _ in range(60):
            sys = random_system(rng)
            stacked = (np.vstack([sys.E, np.zeros((sys.p, sys.n))]),
                       np.vstack([sys.A, sys.C]))
            for E, A in ((sys.E, sys.A), stacked):
                calls[0] = 0
                lim = wong_limits(E, A)
                steps = len(lim.V_chain) + len(lim.W_chain) - 2
                assert calls[0] <= 3 * steps


def forbid_V_chain_with_C(monkeypatch):
    """Make the V chain of a tuple with a proper ker C raise.  The QKF and
    the Kalman decomposition run V chains of tuples without C, which stay
    allowed."""
    chain = wong._chain

    def guarded(pre, fwd, start, im_B, ker_C, tol):
        if start is ker_C and ker_C.dim < ker_C.ambient_dim:
            raise AssertionError("V chain of a tuple with C computed")
        return chain(pre, fwd, start, im_B, ker_C, tol)

    monkeypatch.setattr(wong, "_chain", guarded)
