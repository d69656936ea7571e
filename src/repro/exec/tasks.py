"""Picklable task specs addressing individual sweep design points.

A :class:`SweepTask` never carries a built design (netlists hold cyclic,
process-local structure): it carries the *coordinates* of a point in a
deterministic recipe enumeration that every process derives identically —
Table II pairs come from :data:`repro.eval.experiments.PAIR_RECIPES`,
Figure 1 points from :func:`repro.eval.experiments.fig1_design_lists`
with the same sizes.  ``(kind, key, index)`` therefore names the same
design point in the parent and in every worker, and
:meth:`SweepTask.recipe` finds it without building anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ReproError

__all__ = ["SweepTask", "TaskSchemaError", "TASK_SCHEMA_VERSION",
           "table2_tasks", "fig1_tasks"]

#: Version tag stamped on every serialized task.  Bump when the wire
#: layout changes; readers reject anything they don't understand instead
#: of guessing.
TASK_SCHEMA_VERSION = 2


class TaskSchemaError(ReproError):
    """A serialized task carries a schema this build cannot interpret."""


@dataclass(frozen=True)
class SweepTask:
    """Coordinates of one design point in a sweep enumeration."""

    kind: str            # "table2" | "fig1"
    key: str             # PAIR_RECIPES key, or the Fig. 1 tool name
    index: int           # 0=initial / 1=optimized, or the point index
    sizes: tuple = ()    # sorted (name, value) pairs for fig1_design_lists
    ctx: tuple = ()      # (trace_id, parent_span_id) when tracing, else ()

    def to_record(self) -> dict:
        """The versioned JSON wire form carried by every broker lease.

        Tasks cross process and machine boundaries as plain JSON — never
        as pickles — so a lease served over HTTP and one piped to a
        forked local worker carry the same record.
        """
        return {
            "schema": TASK_SCHEMA_VERSION,
            "kind": self.kind, "key": self.key, "index": self.index,
            "sizes": [list(pair) for pair in self.sizes],
            "ctx": list(self.ctx),
        }

    def recipe(self):
        """The :class:`~repro.frontends.base.Recipe` this task addresses."""
        from ..eval.experiments import PAIR_RECIPES, fig1_design_lists

        if self.kind == "fig1":
            lists = dict(fig1_design_lists(**dict(self.sizes)))
            return lists[self.key][self.index]
        return PAIR_RECIPES[self.key][self.index]

    @classmethod
    def from_record(cls, record: dict) -> "SweepTask":
        """Rebuild a task from its wire form; reject unknown schemas."""
        schema = record.get("schema") if isinstance(record, dict) else None
        if schema != TASK_SCHEMA_VERSION:
            raise TaskSchemaError(
                f"unknown task schema {schema!r} "
                f"(this build speaks {TASK_SCHEMA_VERSION})",
                phase="exec.tasks")
        return cls(
            kind=str(record["kind"]), key=str(record["key"]),
            index=int(record["index"]),
            sizes=tuple((str(name), value)
                        for name, value in record.get("sizes") or ()),
            ctx=tuple(record.get("ctx") or ()),
        )


def table2_tasks(tools: list[str] | None = None) -> list[SweepTask]:
    """One task per Table II design point, in generation order."""
    from ..eval.experiments import table2_keys

    return [SweepTask("table2", key, index)
            for key in table2_keys(tools) for index in (0, 1)]


def fig1_tasks(design_lists: list[tuple[str, list]],
               sizes: dict) -> list[SweepTask]:
    """One task per Figure 1 design point, in generation order.

    ``design_lists`` is the parent's
    :func:`~repro.eval.experiments.fig1_design_lists` structure (only
    point *counts* are read here); ``sizes`` are the keyword arguments
    that produced it, shipped so workers can derive the identical
    enumeration.
    """
    packed = tuple(sorted(sizes.items()))
    return [SweepTask("fig1", tool, index, packed)
            for tool, designs in design_lists
            for index in range(len(designs))]
