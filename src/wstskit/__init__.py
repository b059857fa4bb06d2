"""Verification toolkit for counter machines and FIFO machines.

Builds reduced reachability trees over quasi-ordered state spaces and
decides boundedness and non-termination from their subsumption structure,
checks concrete loop iterability, and answers coverability questions with
an ideal-based downward-closed set algebra.  Every semi-decision runs
under an explicit budget and reports positive, negative, or inconclusive,
never silently diverging.  Each name is imported from its submodule, as in
``from wstskit.rrt import build_rrt``.
"""
