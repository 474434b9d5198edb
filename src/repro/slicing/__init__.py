"""Network-aware program slicing: demarcation points, bidirectional slicer,
object-aware augmentation, disjoint sub-slices."""
