"""End-to-end and per-layer benchmark of the fleet, watch and serving surfaces."""
