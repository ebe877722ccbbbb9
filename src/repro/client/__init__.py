"""Front-end: visual-exploration sessions and response rendering.

The paper's front-end (Grafana) is interchangeable — "we can interoperate
with any visualization framework that is capable of parsing and
displaying summarization responses in JSON".  This package provides the
session logic (UI gestures -> queries) and JSON / ASCII-heatmap
renderers, plus momentum-based prefetching from the paper's future-work
section.
"""

from repro.client.session import ExplorationSession
from repro.client.render import render_ascii_heatmap, render_json

__all__ = ["ExplorationSession", "render_ascii_heatmap", "render_json"]
