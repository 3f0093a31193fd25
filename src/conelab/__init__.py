"""conelab: low-dimensional convex cone toolkit built around a 4D cone that
is facially exposed yet not nice (its dual sum with a face complement is not
closed). Its modules give the body/cone construction, a face catalogue
verified on the body and carried to the cone by the exact lift identity,
divergence-based non-niceness evidence, and mesh/report exporters."""
