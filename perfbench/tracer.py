"""Run one ``idspipe`` CLI command with spans around each module's public calls.

Usage: python perfbench/tracer.py SPANS_JSON -- <idspipe arguments>

The program is not changed: before the CLI starts, every traced function is
replaced by a wrapper in each ``idspipe`` module namespace that refers to
it, so calls made through a module attribute (``classify.train_naive_bayes``)
and through a name imported with ``from .x import y`` are both recorded.
Spans are kept in memory and written to SPANS_JSON when the command ends.

Span names are ``<module>.<function>``. Times come from ``time.perf_counter``,
a system-wide monotonic clock on Linux, so the parent process can place the
spans inside the process it timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from idspipe import classify, cli, data, discretize, evaluate, pipeline, select

# Public functions wrapped in a span named ``<module>.<function>``.
TRACED = {
    data: ("parse_records", "read_dataset", "write_dataset", "sample_indices",
           "map_labels", "stratified_folds"),
    discretize: ("fit_discretizer", "apply_discretizer"),
    select: ("run_selection", "rank_threshold", "greedy_forward_search"),
    classify: ("train_naive_bayes", "nb_predict_batch", "train_adaboost_m1",
               "ensemble_predict_batch"),
    evaluate: ("cross_validate_plan", "build_report"),
    pipeline: ("run_experiment", "load_model_payload"),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end, attrs]
        self.marks: list[list] = []  # [enclosing span id, time]
        self.stack: list[int] = []
        self.eval_predictions: list[tuple] = []  # (model, dataset) seen by `eval`

    def begin(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None, name,
                time.perf_counter(), None, {}]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def mark(self) -> None:
        self.marks.append([self.stack[-1] if self.stack else None, time.perf_counter()])

    def inside(self, name: str) -> bool:
        return any(self.spans[i][2] == name for i in self.stack)

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                span[5].update(annotate(result))
            return result

        return traced

    def wrap_rounds(self, fn):
        """Record each step of the ``boost_rounds`` generator as one round span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rounds = fn(*args, **kwargs)
            while True:
                span = self.begin("classify.boost_round")
                try:
                    info = next(rounds)
                except StopIteration:
                    self.end(span)
                    self.spans.pop()  # the generator's return, not a round
                    return
                self.end(span)
                span[5]["kept"] = bool(info.kept)
                yield info

        return traced

    def unseen_counts(self) -> list[int]:
        """[reserved-slot hits, lookups] over the predictions made by `eval`.

        Mirrors the model's lookup: a value is seen when it is a member of the
        feature's vocabulary, after numpy scalars become Python scalars.
        """
        hits = lookups = 0
        for model, ds in self.eval_predictions:
            for f, values in enumerate(model.feature_values):
                vocab = set(values)
                column = ds.column(f + 1).tolist()
                hits += sum(1 for v in column if v not in vocab)
                lookups += len(column)
        return [hits, lookups]

    def payload(self) -> dict:
        return {"spans": self.spans, "marks": self.marks, "unseen": self.unseen_counts()}


def _install(tracer: Tracer) -> None:
    annotations = {
        "data.parse_records": lambda ds: {"records": len(ds)},
        "discretize.fit_discretizer": lambda m: {
            "cuts": sum(len(c.cuts) for c in m.cut_lists)
        },
        "select.run_selection": lambda r: {
            "method": r.method, "features": len(r.subset.indices)
        },
    }
    replacements = {}
    for module, attrs in TRACED.items():
        for attr in attrs:
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            original = getattr(module, attr)
            replacements[id(original)] = tracer.wrap(original, name, annotations.get(name))
    original_rounds = classify.boost_rounds
    replacements[id(original_rounds)] = tracer.wrap_rounds(original_rounds)

    predict = replacements[id(classify.nb_predict_batch)]

    @functools.wraps(predict)
    def predict_and_keep(model, ds):
        if tracer.inside("cli.eval"):
            tracer.eval_predictions.append((model, ds))
        return predict(model, ds)

    replacements[id(classify.nb_predict_batch)] = predict_and_keep

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "idspipe"]:
        for key, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, key, replacements[id(value)])

    cache_init = select.CorrelationCache.__init__
    select.CorrelationCache.__init__ = tracer.wrap(cache_init, "select.CorrelationCache")
    train_indices = data.FoldPlan.train_indices

    @functools.wraps(train_indices)
    def marked_train_indices(self, fold):
        tracer.mark()  # a fold of cross_validate_plan starts here
        return train_indices(self, fold)

    data.FoldPlan.train_indices = marked_train_indices
    for name, command in cli.cli.commands.items():
        command.callback = tracer.wrap(command.callback, f"cli.{name}")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <idspipe arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    _install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.payload(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
