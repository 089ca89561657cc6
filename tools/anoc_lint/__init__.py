"""anoc-lint: machine-checked determinism & API contracts.

A standalone static-analysis pass over the approxnoc C++ sources. No
libclang, no compile database — a small tokenizer and include-graph
core (lexer.py, model.py) feeds a codified rule set (rules.py) derived
from the repo's determinism-contract comments. See
docs/static-analysis.md for the rule catalog and suppression policy.
"""

__version__ = "1.0"
