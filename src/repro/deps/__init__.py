"""Message dependency analysis: transactions, pairing, inter-transaction
dependencies and consumption tracking."""
