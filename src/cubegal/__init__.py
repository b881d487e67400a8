"""Verification toolkit for the 3x3x3 / 4x4x4 / 5x5x5 cube groups and the
exact number theory behind their realizations as Galois groups: sticker
permutation models with certified orders, square-class discriminant
checks, and Frobenius cycle-type evidence."""

__version__ = "1.0.0"
