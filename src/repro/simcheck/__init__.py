"""repro.simcheck: determinism linter + runtime invariant sanitizer.

Two halves, one contract — the simulator's results must be a pure
function of ``(config, seed)``:

* the **static pass** (:mod:`repro.simcheck.linter`) walks the source
  tree with AST rules SIM001..SIM004 and flags the constructs that
  historically broke that contract (ad-hoc RNGs, wall-clock reads,
  hash-ordered set iteration, float timestamps);
* the **runtime pass** (:mod:`repro.simcheck.sanitizer`) is an opt-in
  ``SimSanitizer`` that checks conservation invariants (packets,
  buffer bytes, PFC pairing, VOQ windows, credits) during and at the
  end of a run, plus a determinism harness
  (:mod:`repro.simcheck.determinism`) that digests the event stream
  and compares repeated same-seed runs.

Run both from the CLI: ``python -m repro.cli check [--sanitize]``.
The halves load apart: a sanitized run never imports the AST rules.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "linter": ("CheckReport", "run_check"),
        "determinism": ("EventStreamDigest", "run_digest"),
        "rules": ("Finding",),
        "sanitizer": ("SanitizerConfig", "SanitizerError", "SimSanitizer"),
    },
)
