"""Exact integer polynomials in t.

Everything is integer arithmetic; a TPoly is a coefficient tuple with
trailing zeros trimmed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class TPoly:
    coeffs: tuple[int, ...] = ()

    @staticmethod
    def of(coeffs: Iterable[int]) -> "TPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return TPoly(tuple(int(c) for c in cs))

    @staticmethod
    def from_powers(powers: Iterable[int]) -> "TPoly":
        out: list[int] = []
        for p in powers:
            if p >= len(out):
                out.extend([0] * (p + 1 - len(out)))
            out[p] += 1
        return TPoly.of(out)

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        get = lambda t, i: t[i] if i < len(t) else 0
        return TPoly.of(get(self.coeffs, i) + get(other.coeffs, i) for i in range(n))

    def __mul__(self, other: "TPoly") -> "TPoly":
        if not self.coeffs or not other.coeffs:
            return TPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return TPoly.of(out)

    def __call__(self, t: int) -> int:
        return sum(c * t**i for i, c in enumerate(self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                terms.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return " + ".join(terms)
