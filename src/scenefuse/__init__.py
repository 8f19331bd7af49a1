"""Scene-based TV episode summarization with fact-based evaluation.

The pieces: MDL scene segmentation over speaker sequences, DTW
transcript-to-caption alignment, causality-constrained scene
reordering, visual-caption cleanup, pluggable summarizer/judge
backends with caching, the PREFS factuality metric, and agreement
statistics, wired together by a resumable pipeline and a CLI.
"""

__version__ = "0.1.0"
