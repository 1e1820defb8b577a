"""Exception types shared across the package."""


class ForgeError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatch(ForgeError):
    """Operands live in different coefficient domains."""


class DivisionByZero(ForgeError):
    """Inverse of zero requested."""


class NotEnumerable(ForgeError):
    """An exhaustive enumeration was requested over an infinite set, or
    over a finite field too large to tabulate (see _logs.MAX_LOG_ENTRIES)."""


class NotNormal(ForgeError, ValueError):
    """An enumeration that assumes a normal cocycle got a non-normal one."""


class NotACocycle(ForgeError, ValueError):
    """Twist data violates the cocycle identities."""


class UnknownElement(ForgeError):
    """A name does not belong to the semigroup."""


class SemigroupInvalid(ForgeError):
    """Raised by semigroup validation; carries the full violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid semigroup: {lines}{more}")


class RingMismatch(ForgeError):
    """Ring elements from different rings were combined."""


class NotAUnit(ForgeError):
    """Inverse of a non-invertible ring element requested."""


class WitnessInvalid(ForgeError):
    """An isomorphism witness does not satisfy its defining relations."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__(f"witness relations fail at {len(self.failures)} place(s): "
                         + ", ".join(str(f[0]) for f in self.failures[:4]))


class InstanceFileInvalid(ForgeError):
    """Raised by instance parsing; carries (json_pointer, message) pairs."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"{ptr}: {msg}" for ptr, msg in self.issues[:6]))
