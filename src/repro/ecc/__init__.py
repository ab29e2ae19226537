"""Error-correcting codes used by SSD controllers.

Modern SSDs wrap every page in ECC (Section 2.2).  The paper's key
observation is that ECC does not commute with in-flash AND/OR: the
bitwise combination of two codewords is generally not a codeword of
the combined data, so ParaBit-style IFP cannot rely on the controller
ECC -- the motivation for ESP's zero-error programming.

This package provides the binary BCH encoder (the workhorse of SLC/MLC
controllers before LDPC) that demonstrates it, built on GF(2^m)
arithmetic.
"""

from repro.ecc.bch import BchCode
from repro.ecc.gf import GaloisField

__all__ = ["BchCode", "GaloisField"]
