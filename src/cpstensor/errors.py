"""Exception types raised across the package."""


class CpsTensorError(Exception):
    """Base class for all package errors."""


class InputError(CpsTensorError):
    """Base class for malformed or out-of-range input; the CLI exits 3."""


class SizeMismatch(InputError):
    pass


class IndexOutOfRange(CpsTensorError):
    pass


class OddOrder(InputError):
    pass


class NotSymmetric(InputError):
    pass


class NotPartialSymmetric(InputError):
    pass


class NotCps(InputError):
    pass


class NonHermitianInput(CpsTensorError):
    pass


class NoConvergence(CpsTensorError):
    pass


class ZeroMatrix(CpsTensorError):
    pass


class BadPermutation(InputError):
    pass


class NotRankOne(CpsTensorError):
    pass


class NotInSubspace(CpsTensorError):
    pass


class TermBudgetExceeded(CpsTensorError):
    pass


class NonSymmetricEigenvector(CpsTensorError):
    pass


class ResidualTooLarge(CpsTensorError):
    pass


class NotUnit(CpsTensorError):
    pass


class UnsupportedDimension(CpsTensorError):
    pass


class Uncertified(CpsTensorError):
    pass


class ParseError(InputError):
    pass


class RangeError(InputError):
    pass
