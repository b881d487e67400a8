"""Order formulas behind the cube groups: restricted wreath products and
fiber products over sign characters.  Every fiber product of
the paper is taken over two surjective sign characters, so a fiber
order is half the product of the two orders; no other case is modelled.
"""

from math import factorial


def restricted_wreath_order(n: int, m: int) -> int:
    """|(C_n wr S_m)^0| = n^(m-1) * m! (index n in the full wreath product)."""
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    return n ** (m - 1) * factorial(m)


def fiber_order(order_left: int, order_right: int) -> int:
    """Order of a fiber product over two sign characters that are both
    onto {+1,-1}: index 2 in the direct product."""
    return order_left * order_right // 2


R3_ORDER = 43252003274489856000
R4_ORDER = 16972688908618238933770849245964147960401887232000000000
R5_ORDER = 2582636272886959379162819698174683585918088940054237132144778804568925405184000000000000000


def r3_predicted_order() -> int:
    """|(C3 wr S8)^0 x_sign (C2 wr S12)^0|."""
    return fiber_order(restricted_wreath_order(3, 8), restricted_wreath_order(2, 12))


def r4_predicted_order() -> int:
    """|(C3 wr S8)^0 x_sign S24| * |S24| = 3^7 8! (24!)^2 / 2."""
    return fiber_order(restricted_wreath_order(3, 8), factorial(24)) * factorial(24)


def r5_predicted_order() -> int:
    """|R3| * (24!)^3 / 4: two successive index-2 sign fibers over the
    three free 24-piece classes."""
    return r3_predicted_order() * factorial(24) ** 3 // 4
