"""Reference implementations the shipped fast paths are held to, bit for bit."""
