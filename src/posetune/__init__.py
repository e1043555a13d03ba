"""Self-configuring 6D pose estimation on synthetic scenes."""
