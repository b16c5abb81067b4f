"""The one report type, shared by the verification routines and suites."""

from dataclasses import dataclass, field, replace


@dataclass
class CheckRecord:
    name: str
    status: str
    witness: str = ""
    ms: object = None


@dataclass
class SuiteReport:
    """A named bundle of pass/fail records."""

    name: str
    params: dict
    checks: list = field(default_factory=list)

    @property
    def failed(self):
        return [c for c in self.checks if c.status != "pass"]

    @property
    def passed(self):
        return not self.failed

    def absorb(self, other, prefix=None):
        """Append copies of another report's records, names prefixed."""
        for c in other.checks:
            name = c.name if prefix is None else "%s: %s" % (prefix, c.name)
            self.checks.append(replace(c, name=name))

    def add(self, name, passed, witness=""):
        self.checks.append(CheckRecord(name, "pass" if passed else "fail",
                                       witness))
        return passed
