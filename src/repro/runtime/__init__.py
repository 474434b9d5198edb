"""Dynamic substrate: IR interpreter, in-process HTTP stack, scripted
servers, traffic capture and the UI-fuzzing baselines."""
