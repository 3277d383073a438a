"""Closed-form input signals with analytic derivatives.

The derivative-producing block of a descriptor system turns input
derivatives into state components, so simulation needs exact derivatives of
arbitrary order.  A signal is, per channel, a sum of closed-form terms from
three families, each differentiated in closed form by numpy:

* polynomials -- differentiated by shifting the coefficients,
* sinusoids -- the k-th derivative scales by freq^k and shifts the phase by
  k pi/2 (taken exactly, as a choice among +-sin and +-cos),
* the probe sin(tau^2) / tau^s, tau = t + shift -- differentiated by
  truncated-Taylor (jet) arithmetic: the Taylor recurrences of sin and cos
  of the jet tau^2, the power series of tau^-s, and their Cauchy product
  (Griewank & Walther, Evaluating Derivatives, SIAM 2008, ch. 13).

The zero signal is the empty sum.
"""

from __future__ import annotations

import math

import numpy as np


class _Polynomial:
    """sum_j coeffs[j] t^j."""

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)

    def eval(self, t: np.ndarray, order: int) -> np.ndarray:
        c = self.derivative(order).coeffs
        out = np.full(t.shape, c[-1] if c else 0.0)
        for a in reversed(c[:-1]):      # Horner
            out = out * t + a
        return out

    def scaled(self, factor: float) -> "_Polynomial":
        return _Polynomial([factor * c for c in self.coeffs])

    def derivative(self, order: int) -> "_Polynomial":
        c = self.coeffs
        return _Polynomial([c[j] * math.perm(j, order)
                            for j in range(order, len(c))])

    def __repr__(self):
        return f"poly{list(self.coeffs)}"


class _Sinusoid:
    """amplitude * d^deriv/dt^deriv sin(frequency t + phase)."""

    def __init__(self, amplitude: float, frequency: float, phase: float,
                 deriv: int = 0):
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.phase = float(phase)
        self.deriv = deriv

    def eval(self, t: np.ndarray, order: int) -> np.ndarray:
        k = order + self.deriv
        arg = self.frequency * t + self.phase
        # The k-th derivative of sin is sin shifted by k pi/2.
        wave = np.sin(arg) if k % 2 == 0 else np.cos(arg)
        sign = -1.0 if k % 4 >= 2 else 1.0
        return (sign * self.amplitude * self.frequency ** k) * wave

    def scaled(self, factor: float) -> "_Sinusoid":
        return _Sinusoid(factor * self.amplitude, self.frequency, self.phase,
                         self.deriv)

    def derivative(self, order: int) -> "_Sinusoid":
        return _Sinusoid(self.amplitude, self.frequency, self.phase,
                         self.deriv + order)

    def __repr__(self):
        return (f"{self.amplitude:g}*sin({self.frequency:g}t{self.phase:+g})"
                + ("'" * self.deriv))


class _Probe:
    """amplitude * d^deriv/dt^deriv sin(tau^2) / tau^s, tau = t + shift."""

    def __init__(self, s: int, shift: float, amplitude: float = 1.0,
                 deriv: int = 0):
        self.s = s
        self.shift = float(shift)
        self.amplitude = float(amplitude)
        self.deriv = deriv

    def eval(self, t: np.ndarray, order: int) -> np.ndarray:
        k = order + self.deriv
        tau = t + self.shift
        # Taylor coefficients at tau of sin(g) and cos(g), g = tau^2, from
        # (sin g)' = g' cos g and (cos g)' = -g' sin g with g_1 = 2 tau,
        # g_2 = 1 and g_j = 0 beyond.
        sin_c = [np.sin(tau * tau)]
        cos_c = [np.cos(tau * tau)]
        for j in range(1, k + 1):
            sj = 2 * tau * cos_c[j - 1]
            cj = -2 * tau * sin_c[j - 1]
            if j >= 2:
                sj = sj + 2 * cos_c[j - 2]
                cj = cj - 2 * sin_c[j - 2]
            sin_c.append(sj / j)
            cos_c.append(cj / j)
        if self.s == 0:
            coeff = sin_c[k]
        else:
            # Taylor coefficients of tau^-s: binom(-s, j) tau^(-s-j).
            pw = [tau ** -float(self.s)]
            for j in range(1, k + 1):
                pw.append(pw[-1] * ((-self.s - j + 1) / j) / tau)
            coeff = sum(sin_c[j] * pw[k - j] for j in range(k + 1))
        return (self.amplitude * math.factorial(k)) * coeff

    def scaled(self, factor: float) -> "_Probe":
        return _Probe(self.s, self.shift, factor * self.amplitude, self.deriv)

    def derivative(self, order: int) -> "_Probe":
        return _Probe(self.s, self.shift, self.amplitude, self.deriv + order)

    def __repr__(self):
        return (f"{self.amplitude:g}*sin(tau^2)/tau^{self.s}"
                f"[tau=t{self.shift:+g}]" + ("'" * self.deriv))


class InputSignal:
    """Vector-valued smooth signal u(t) with derivatives of every order.

    ``channels[i]`` is the tuple of closed-form terms whose sum is
    component i; build signals with the constructors below.
    """

    def __init__(self, channels):
        self.channels = tuple(tuple(terms) for terms in channels)

    @property
    def dim(self) -> int:
        return len(self.channels)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "InputSignal":
        return cls([()] * dim)

    @classmethod
    def polynomial(cls, coefficients) -> "InputSignal":
        """coefficients[i] = ascending coefficients of component i."""
        return cls([(_Polynomial(comp),) for comp in coefficients])

    @classmethod
    def sinusoid(cls, amplitudes, frequency: float, phase: float = 0.0) -> "InputSignal":
        return cls([(_Sinusoid(a, frequency, phase),)
                    for a in np.atleast_1d(amplitudes)])

    @classmethod
    def probe(cls, s: int, dim: int, component: int = 0,
              shift: float = 1.0) -> "InputSignal":
        """Decaying chirp sin((t+shift)^2) / (t+shift)^s in one component.

        Derivatives up to order s-1 decay while the s-th does not, which is
        exactly the input that defeats any estimator for a functional that
        depends on the s-th input derivative.  The time shift keeps the
        signal smooth at t = 0, so s >= 1 needs shift > 0.
        """
        if not 0 <= component < dim:
            raise ValueError("component out of range")
        if not float(s).is_integer() or s < 0:
            raise ValueError(f"probe exponent s must be an integer >= 0, got {s}")
        if s >= 1 and not shift > 0:
            raise ValueError(f"probe with s = {int(s)} needs shift > 0 (it is "
                             f"singular at t = -shift), got shift {shift:g}")
        term = _Probe(int(s), shift)
        return cls([(term,) if i == component else () for i in range(dim)])

    @classmethod
    def stack(cls, signals) -> "InputSignal":
        """The signal whose channels are those of ``signals``, in order."""
        return cls([terms for sig in signals for terms in sig.channels])

    def __add__(self, other: "InputSignal") -> "InputSignal":
        if self.dim != other.dim:
            raise ValueError("signal dimensions differ")
        return InputSignal([a + b for a, b in zip(self.channels, other.channels)])

    def scale(self, factor: float) -> "InputSignal":
        return InputSignal([[term.scaled(factor) for term in terms]
                            for terms in self.channels])

    # -- evaluation ---------------------------------------------------------

    def eval(self, t, order: int = 0) -> np.ndarray:
        """Value of the order-th derivative at scalar or array times t.

        Returns shape (dim,) for scalar t, (dim,) + t.shape for arrays.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros((self.dim,) + t.shape)
        for i, terms in enumerate(self.channels):
            for term in terms:
                out[i] += term.eval(t, order)
        return out

    def __call__(self, t) -> np.ndarray:
        return self.eval(t, 0)

    def derivative(self, order: int = 1) -> "InputSignal":
        return InputSignal([[term.derivative(order) for term in terms]
                            for terms in self.channels])

    def __repr__(self):
        return f"InputSignal({[list(terms) for terms in self.channels]!r})"
