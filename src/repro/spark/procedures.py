"""SQL stored procedures for Spark (paper II.D.1).

"SQL Stored Procedure interfaces to submit or cancel Spark applications"
and "further prepackaged Stored Procedures which allow to run ready to use
analytic algorithms like GLM from within SQL".

Installed onto a Database (or every shard coordinator) with
:func:`install_spark_procedures`; applications are registered Python
callables (the deployed-notebook model of the paper's one-click deploy).
"""

from __future__ import annotations

from repro.analytics.glm import glm_fit
from repro.database.result import Result
from repro.errors import SparkSubmitError, UnknownObjectError
from repro.spark.dispatcher import SparkDispatcher


class SparkAppRegistry:
    """Deployed applications callable by name (one-click deployment)."""

    def __init__(self):
        self._apps: dict[str, object] = {}

    def deploy(self, name: str, main_fn) -> None:
        self._apps[name.upper()] = main_fn

    def resolve(self, name: str):
        fn = self._apps.get(name.upper())
        if fn is None:
            raise UnknownObjectError("no deployed Spark application %s" % name.upper())
        return fn

    def names(self) -> list[str]:
        return sorted(self._apps)


def install_spark_procedures(database, dispatcher: SparkDispatcher, registry: SparkAppRegistry):
    """Register SYSPROC-style Spark procedures on a database."""

    def spark_submit(db, session, args) -> Result:
        if not args:
            raise SparkSubmitError("SPARK_SUBMIT(app_name) requires an argument")
        app_name = str(args[0])
        user = str(args[1]) if len(args) > 1 else "default"
        main_fn = registry.resolve(app_name)
        app = dispatcher.submit(user, app_name, main_fn)
        return Result(
            columns=["APP_ID", "STATE"],
            rows=[(app.app_id, app.state)],
            rowcount=1,
        )

    def spark_cancel(db, session, args) -> Result:
        if not args:
            raise SparkSubmitError("SPARK_CANCEL(app_id) requires an argument")
        app_id = str(args[0])
        user = str(args[1]) if len(args) > 1 else "default"
        dispatcher.cancel(user, app_id)
        return Result(message="application %s cancelled" % app_id)

    def spark_status(db, session, args) -> Result:
        if not args:
            raise SparkSubmitError("SPARK_STATUS(app_id) requires an argument")
        user = str(args[1]) if len(args) > 1 else "default"
        state = dispatcher.status(user, str(args[0]))
        return Result(columns=["STATE"], rows=[(state,)], rowcount=1)

    def idax_glm(db, session, args) -> Result:
        """CALL IDAX_GLM(table, label_col, feature_col, ...) — the
        prepackaged in-database GLM of papers II.C.4 / II.D.1."""
        if len(args) < 3:
            raise SparkSubmitError(
                "IDAX_GLM(table, label_column, feature_columns...) requires arguments"
            )
        features = [str(a) for a in args[2:]]
        model = glm_fit(session, str(args[0]), str(args[1]), features)
        rows = [("INTERCEPT", float(model.coefficients[0]))]
        rows += [
            (feature.upper(), float(coef))
            for feature, coef in zip(features, model.coefficients[1:])
        ]
        return Result(columns=["TERM", "COEFFICIENT"], rows=rows, rowcount=len(rows))

    database.register_procedure("SPARK_SUBMIT", spark_submit)
    database.register_procedure("SYSPROC.SPARK_SUBMIT", spark_submit)
    database.register_procedure("SPARK_CANCEL", spark_cancel)
    database.register_procedure("SYSPROC.SPARK_CANCEL", spark_cancel)
    database.register_procedure("SPARK_STATUS", spark_status)
    database.register_procedure("IDAX_GLM", idax_glm)
    database.register_procedure("IDAX.GLM", idax_glm)
