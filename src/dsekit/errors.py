"""Exception taxonomy shared by all dsekit modules."""


class DsekitError(Exception):
    """Base class for all domain errors raised by dsekit."""


class BoundViolated(DsekitError):
    """A proved bound or exact identity failed to hold on computed values.

    Raised by ``check``, which unlike ``assert`` also runs under
    ``python -O``; it signals a defect, not bad input.
    """


def check(cond, message: str) -> None:
    """Raise BoundViolated(message) unless cond holds."""
    if not cond:
        raise BoundViolated(message)


class OverlapError(DsekitError):
    """Gluing or constructing a partial map would violate injectivity."""


class InvalidDSE(DsekitError):
    """Coverage of domains or images is not the claimed multiplicity.

    Carries the offending cells as ``(lo, hi, count)`` triples in
    ``bad_domain_cells`` / ``bad_image_cells``.
    """

    def __init__(self, message, bad_domain_cells=(), bad_image_cells=()):
        super().__init__(message)
        self.bad_domain_cells = tuple(bad_domain_cells)
        self.bad_image_cells = tuple(bad_image_cells)


class MultiplicityMismatch(DsekitError):
    """Two elements that must share a multiplicity do not."""


class NotDoublyStochastic(DsekitError):
    """Row/column mass is not the constant required by the operation."""


class PreconditionViolated(DsekitError):
    """An operation's stated precondition does not hold for the inputs."""


class InvalidExtension(DsekitError):
    """An extension's invariants fail relative to the piece it extends."""


class AlreadyFull(DsekitError):
    """The piece already covers the whole space; nothing to enlarge."""


class InvalidPath(DsekitError):
    """A better path does not fit the division it is applied to."""


class AlreadyPerfect(DsekitError):
    """The division already has error zero; nothing to improve."""


class UnsplittableDiagonal(DsekitError):
    """A self-flipped diagonal atom family has odd multiplicity."""


class NotSymmetric(DsekitError):
    """The element is not equal to its own flip/inverse."""


class NotCellAligned(DsekitError):
    """Atoms do not align with the dyadic grid of the requested level.

    ``offending_atoms`` lists the atoms that break the alignment.
    """

    def __init__(self, message, offending_atoms=()):
        super().__init__(message)
        self.offending_atoms = tuple(offending_atoms)


class NotPermutation(DsekitError):
    """A matrix expected to be a permutation matrix is not one."""


class Infeasible(DsekitError):
    """No padding exists: some row or column sum already exceeds the target."""


class OrbitEscapes(DsekitError):
    """An orbit iterate left the domain of the map."""


class MassMismatch(DsekitError):
    """Total mass of the inputs differs from what the construction needs."""
