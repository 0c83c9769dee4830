"""Exception hierarchy for the dashDB Local reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch one base class.  The hierarchy loosely mirrors SQLSTATE
classes: syntax, semantic (binding), runtime (data), and system (cluster /
deployment) failures are distinguishable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SQLError(ReproError):
    """Base class for errors raised while compiling or running SQL."""

    def __init__(self, message: str, sqlstate: str = "58000"):
        super().__init__(message)
        self.sqlstate = sqlstate


class SQLSyntaxError(SQLError):
    """The statement text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message, sqlstate="42601")
        self.line = line
        self.column = column


class BindError(SQLError):
    """A name (table, column, function) could not be resolved."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="42704")


class TypeCheckError(SQLError):
    """Operand types are incompatible with an operator or function."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="42804")


class DuplicateObjectError(SQLError):
    """CREATE of an object that already exists."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="42710")


class UnknownObjectError(SQLError):
    """Reference to (or DROP of) an object that does not exist."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="42704")


class ConversionError(SQLError):
    """A value could not be converted to the requested data type."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="22018")


class DivisionByZeroError(SQLError):
    """Numeric division by zero during expression evaluation."""

    def __init__(self, message: str = "division by zero"):
        super().__init__(message, sqlstate="22012")


class NumericOverflowError(SQLError):
    """An exact numeric result left its type's range (DB2 SQL0802N)."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="22003")


class ConstraintViolationError(SQLError):
    """A uniqueness or not-null constraint was violated (a unique key:
    SQL0803N, 23505)."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="23505")


class NotNullViolationError(ConstraintViolationError):
    """A NULL was written into a NOT NULL column (SQL0407N, 23502)."""

    def __init__(self, message: str):
        super().__init__(message)
        self.sqlstate = "23502"


class UnsupportedFeatureError(SQLError):
    """Syntax parsed but the feature is not supported (or not in dialect)."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="0A000")


class DialectError(SQLError):
    """A dialect-specific construct used under the wrong session dialect."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="42601")


class TransactionConflictError(SQLError):
    """First-committer-wins write-write conflict (serialization failure).

    Raised when a transaction tries to delete or update a row version
    that a concurrent transaction has already stamped.  SQLSTATE 40001
    matches DB2's "deadlock or timeout" class used for serialization
    failures; the statement should be retried on a fresh snapshot."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="40001")


class StorageError(ReproError):
    """Base class for storage-layer failures.

    Carries the DB2-style SQLSTATE 58030 ("an I/O error occurred") so
    storage faults surfacing through the public statement API are
    machine-distinguishable from SQL compilation/runtime errors.
    """

    sqlstate = "58030"


class PageCorruptionError(StorageError):
    """A page failed its checksum or structural validation."""


class FileSystemError(StorageError):
    """Simulated clustered-filesystem failure (missing path, bad mount)."""


class BufferPoolError(StorageError):
    """Buffer pool misuse (e.g. unfixing a page that is not fixed)."""


class CrashError(StorageError):
    """A simulated host crash injected by the durability fault harness.

    Deliberately *not* an SQLError: the engine's statement machinery must
    never swallow it — a crash ends the simulated process, and the test
    harness recovers a fresh engine from the durable state."""


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent state."""


class ClusterError(ReproError):
    """Base class for MPP cluster-layer failures.

    SQLSTATE 57011 ("virtual storage or database resource is not
    available") is the DB2 class for a temporarily unusable resource —
    the closest match for a degraded cluster."""

    sqlstate = "57011"


class NodeDownError(ClusterError):
    """An operation was routed to a node that is not alive."""

    sqlstate = "57015"  # connection to the application server does not exist


class NoSurvivorsError(ClusterError):
    """Failover was requested but no healthy node remains."""


class RebalanceError(ClusterError):
    """Shard reassociation could not produce a valid assignment."""


class AdmissionError(ClusterError):
    """The workload manager rejected or timed out a queued query.

    Shed/cancelled work carries the DB2-style SQLSTATE 57014 ("processing
    was cancelled"); configuration misuse keeps the generic state.
    """

    sqlstate = "58000"


class DeploymentError(ReproError):
    """Container deployment failed (bad image, missing mount, etc.)."""

    sqlstate = "58004"  # system error (appliance-level failure)


class SparkError(ReproError):
    """Base class for mini-Spark failures."""

    sqlstate = "58004"  # system error in an embedded runtime


class SparkJobError(SparkError):
    """A Spark job failed during DAG execution."""


class SparkSubmitError(SparkError):
    """A Spark application could not be submitted or was rejected."""


class FederationError(ReproError):
    """Remote-table (nickname) access failure."""

    sqlstate = "08001"  # unable to establish the remote connection


class AnalyticsError(ReproError):
    """In-database analytics failure (non-convergence, bad input shape)."""

    sqlstate = "22000"  # data exception (bad shape / non-convergence)
