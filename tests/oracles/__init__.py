"""Reference implementations the fast paths are tested against."""
