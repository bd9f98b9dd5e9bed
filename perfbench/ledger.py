"""Failure accounting: operations attempted, and the checks that failed them."""

from collections import Counter
from contextlib import contextmanager

from phasornet.errors import PhasorNetError


class Op:
    def __init__(self, ledger, name):
        self.ledger = ledger
        self.name = name
        self.failed = False

    def check(self, what, ok):
        """Record a named output check; a false one fails the operation."""
        if not ok:
            self.fail(what)
        return bool(ok)

    def fail(self, what):
        self.ledger.failures[f"{self.name}.{what}"] += 1
        self.failed = True


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()

    @contextmanager
    def op(self, name):
        """One attempted operation. A package error raised inside it is
        recorded as a failure of the operation and not propagated; any other
        exception is a defect of the benchmark and propagates."""
        self.attempted += 1
        op = Op(self, name)
        try:
            yield op
        except PhasorNetError as e:
            op.fail(type(e).__name__)
        self.failed += op.failed

    def check(self, name, ok):
        """A check that is an operation of its own."""
        with self.op(name) as op:
            op.check("failed", ok)
        return bool(ok)

    @property
    def ok_frac(self):
        return 1.0 - self.failed / self.attempted
