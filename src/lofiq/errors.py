"""Exception hierarchy shared across the package."""


class LofiqError(Exception):
    """Base class for all lofiq errors."""


# -- tensor file container --------------------------------------------------

class BadMagic(LofiqError):
    pass


class BadVersion(LofiqError):
    pass


class HeaderParse(LofiqError):
    pass


class OffsetOutOfBounds(LofiqError):
    pass


class NonFiniteValue(LofiqError):
    pass


# -- shapes, axes, blocks ---------------------------------------------------

class AxisOutOfRange(LofiqError):
    pass


class NotDivisible(LofiqError):
    def __init__(self, extent, block_size, axis=None):
        self.extent = extent
        self.block_size = block_size
        self.axis = axis
        where = f" on axis {axis}" if axis is not None else ""
        super().__init__(f"extent {extent}{where} is not divisible by block size {block_size}")


class ShapeMismatch(LofiqError):
    pass


class LengthMismatch(LofiqError):
    pass


class EmptyTensor(LofiqError):
    pass


class ZeroSignal(LofiqError):
    pass


# -- formats and decompositions ---------------------------------------------

class UnknownFormat(LofiqError):
    pass


class RankOutOfRange(LofiqError):
    pass


class AlphaOutOfRange(LofiqError, ValueError):
    """A migration strength outside [0, 1]; a ValueError too, for callers that catch that."""


class NonConvergence(LofiqError):
    pass
