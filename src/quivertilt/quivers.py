"""Finite acyclic quivers and their path bases."""

from __future__ import annotations

from .values import Value


class Arrow(Value):
    __slots__ = ("name", "source", "target")

    def __init__(self, name: str, source: object, target: object):
        self.name = name
        self.source = source
        self.target = target

    def _fields(self) -> tuple:
        return (self.name, self.source, self.target)


class Path(Value):
    """A directed path; arrows listed in composition order (last applied
    first in the tuple), so the empty tuple is a trivial path."""

    __slots__ = ("arrows", "source", "target")

    def __init__(self, arrows: tuple[int, ...], source: object, target: object):
        self.arrows = arrows
        self.source = source
        self.target = target

    def _fields(self) -> tuple:
        return (self.arrows, self.source, self.target)

    @property
    def length(self) -> int:
        return len(self.arrows)


class Quiver:
    """A finite quiver without oriented cycles."""

    def __init__(self, vertices, arrows):
        """Args:
            vertices: iterable of distinct hashable vertex labels.
            arrows: iterable of (source, target) or (source, target, name).
        """
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        built = []
        for idx, spec in enumerate(arrows):
            spec = tuple(spec)
            if len(spec) == 2:
                src, tgt = spec
                name = f"a{idx}"
            elif len(spec) == 3:
                src, tgt, name = spec
            else:
                raise ValueError(f"bad arrow spec {spec!r}")
            if src not in self.vertices or tgt not in self.vertices:
                raise ValueError(f"arrow {name} uses unknown vertices")
            built.append(Arrow(str(name), src, tgt))
        if len({a.name for a in built}) != len(built):
            raise ValueError("duplicate arrow names")
        self.arrows = tuple(built)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Kahn's algorithm; leftovers mean an oriented cycle.
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for a in self.arrows:
                if a.source == v:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0:
                        queue.append(a.target)
        if seen != len(self.vertices):
            raise ValueError("quiver has an oriented cycle")

    def all_paths(self) -> list[Path]:
        """Every path, trivial paths first, then by (length, arrow indices)."""
        paths = [Path((), v, v) for v in self.vertices]
        frontier = [Path((i,), a.source, a.target) for i, a in enumerate(self.arrows)]
        while frontier:
            paths.extend(frontier)
            longer = []
            for p in frontier:
                for i, a in enumerate(self.arrows):
                    if a.source == p.target:
                        longer.append(Path((i,) + p.arrows, p.source, a.target))
            frontier = longer
        paths.sort(key=lambda q: (q.length, q.arrows))
        return paths

    def path_label(self, path: Path) -> str:
        if not path.arrows:
            return f"e_{path.source}"
        return "*".join(self.arrows[i].name for i in path.arrows)

    def __repr__(self) -> str:
        arrows = ", ".join(f"{a.name}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({list(self.vertices)}; {arrows})"
