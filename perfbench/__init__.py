"""End-to-end benchmark of the reshaping stack (see README.md)."""
