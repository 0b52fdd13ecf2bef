"""Reference implementations of the series kernels in plain FieldConstant
arithmetic: the Taylor division and the order-matching loop as they were
written before the engine moved to integer vectors.  Tests compare the integer
kernels of merosolve against them; nothing in the package imports this."""

from __future__ import annotations

from merosolve.field import ONE, ZERO


def series_div(num, den, n):
    """First n coefficients of the power series num/den, den[0] != 0."""
    inv0 = den[0].inverse()
    num = list(num) + [ZERO] * (n - len(num))
    den = list(den) + [ZERO] * (n - len(den))
    out = [ZERO] * n
    for k in range(n):
        acc = num[k]
        for j in range(1, k + 1):
            if not den[j].is_zero:
                acc = acc - den[j] * out[k - j]
        out[k] = acc * inv0
    return out


def taylor_at(f, z0, n):
    """f.taylor_at(z0, n), through series_div."""
    if f.is_zero:
        return 0, [ZERO] * n
    m, den = f._split_pole(z0)
    return -m, series_div(list(f.num.shift(z0).coeffs), list(den.shift(z0).coeffs), n)


def residual_order(m, a, p, al, be, ga):
    """(base, slope) of the order-m equation in the next unknown a_n, n = len(a)."""
    n = len(a)
    base = slope = ZERO
    s = m - 2 * p + 2
    for i in range(max(0, s - n + 1), s // 2 + 1):
        j = s - i
        if a[i].is_zero or a[j].is_zero:
            continue
        c = (j - i) ** 2 - (2 * p + s) if i < j else -(p + i)
        if c:
            base = base + a[i] * a[j] * c
    i = s - n
    if 0 <= i < n:
        slope = a[i] * ((n - i) ** 2 - (2 * p + s))
    for i in range(n + 1):
        if i < n and a[i].is_zero:
            continue
        l = m - p - i
        c = al[l] if 0 <= l < len(al) else ZERO
        if 0 <= l + 1 < len(be) and not be[l + 1].is_zero:
            c = c + be[l + 1] * (p + i)
        if c.is_zero:
            continue
        if i < n:
            base = base - c * a[i]
        else:
            slope = slope - c
    if 0 <= m < len(ga):
        base = base - ga[m]
    return base, slope


def match_orders(res, a, order, free_value):
    """Extend a in place through a_order; (first vanishing slope, halt index)."""
    first = None
    for n in range(len(a), order + 1):
        base, slope = res(n, a)
        if not slope.is_zero:
            a.append(-base / slope)
            continue
        if first is None:
            first = n
        if not base.is_zero:
            return first, n
        a.append(free_value if n == first else ZERO)
    return first, None


def expand(alpha, beta, gamma, z0, p, a0, order):
    """(coefficients, halted_at, alternate_coefficients) of series.expand."""
    n_taylor = order + 2 * p + 1
    al, be, ga = (taylor_at(f, z0, n_taylor)[1] for f in (alpha, beta, gamma))

    def res(n, a):
        return residual_order(n + 2 * p - 2, a, p, al, be, ga)

    a = [a0]
    first, halted = match_orders(res, a, order, ZERO)
    alternate = None
    if first is not None and halted != first:
        alt = a[:first] + [ONE]
        if match_orders(res, alt, order, ZERO)[1] is None:
            alternate = tuple(alt)
    return tuple(a), halted, alternate
