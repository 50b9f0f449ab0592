"""List the functions of gstrand that no digest run reaches.

    python3 scripts/run_path.py [CHECKOUT]

Runs every scenario of ``scripts/output_digests.py`` (the small runs, the
run that blows up and seed 1 of every perfbench workload, each writing its
files, then the single_converge seed through ``gstrand converge --levels
4``) under a profile hook, and prints each function, method and class
defined in ``CHECKOUT/src/gstrand`` (default: this checkout) that none of
them reached: one line ``<module> <name> <lines>`` each, in source order,
then one with their count and the total of their lines.

The hook is installed with ``sys.setprofile`` and ``threading.setprofile``
before gstrand is imported, so it also sees what runs at import time (the
table builders of ``_g17``, the parsers of ``MODEL_SPECS``) and in any
thread that the gstrand of ``CHECKOUT`` starts.  A nested function
or lambda counts as part of the function that defines it.  A method counts
apart from its class: a class's lines are those outside its methods, and
a class is reached once one of its methods runs for it or a subclass,
the methods that a dataclass or a named tuple generates included.
Exception classes are left out: raising one runs no Python code, so the
hook cannot see it.  A line counts from a
definition's first decorator to its end.  The scenarios come from this
checkout; the script exits with status 1 when the gstrand it imported is
not the one under ``CHECKOUT/src``.
"""

import ast
import inspect
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.ClassDef)


def definitions(package):
    """Each function, method and class at module or class level in ``package``:
    a dict from (file, first line, last line) to (module, name, lines)."""
    units = {}

    def visit(path, module, nodes, prefix):
        spanned = 0  # the lines of the definitions among nodes
        for node in nodes:
            if isinstance(node, DEFS):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                lines = node.end_lineno - first + 1
                spanned += lines
                if isinstance(node, ast.ClassDef):
                    lines -= visit(path, module, node.body, f"{prefix}{node.name}.")
                units[(str(path), first, node.end_lineno)] = (module, prefix + node.name, lines)
        return spanned

    for path in sorted(package.glob("*.py")):
        module = "gstrand" if path.stem == "__init__" else f"gstrand.{path.stem}"
        visit(path.resolve(), module, ast.parse(path.read_text(encoding="utf-8")).body, "")
    return units


def profiled_runs(checkout):
    """Run the digest scenarios with gstrand from ``checkout``: the code
    objects of every Python call, and the class of each generated method
    (a dataclass's ``__init__``, a named tuple's ``__new__``) that ran."""
    import output_digests  # this script's neighbour; it imports no gstrand at import

    scenarios = {**output_digests.small_runs(), **output_digests.workload_runs()}
    codes, made = set(), set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes.add(code)
            # a method generated by exec or eval, not dataclasses' factory of one
            generated = code.co_filename == "<string>" and code.co_name != "__create_fn__"
            if generated and code.co_argcount:
                first = frame.f_locals.get(code.co_varnames[0])
                made.add(first if isinstance(first, type) else type(first))

    sys.path.insert(0, str(checkout / "src"))
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        import gstrand

        with tempfile.TemporaryDirectory() as tmp:
            output_digests.digests(scenarios, tmp)
            output_digests.converge_digest(scenarios["single_converge-1"], 4, tmp)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    # an installed or already imported gstrand would be profiled in place of the checkout's
    if Path(gstrand.__file__).resolve().parent != (checkout / "src" / "gstrand").resolve():
        sys.exit(f"run_path: imported gstrand from {gstrand.__file__}, not {checkout / 'src'}")
    return codes, made


def lookup(module, name):
    """The object that ``name`` names in the imported ``module``, or None."""
    obj = sys.modules.get(module)
    for part in name.split("."):
        obj = getattr(obj, part, None)
    return obj


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__)
    checkout = Path(argv[0]).resolve() if argv else HERE
    package = checkout / "src" / "gstrand"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run_path: no gstrand sources under {package}")
    codes, made = profiled_runs(checkout)
    units = definitions(package)
    named = {(module, name): key for key, (module, name, _) in units.items()}

    reached = set()
    for code in codes:
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function's code, not a class body's
            file, line = str(Path(code.co_filename).resolve()), code.co_firstlineno
            held = [key for key in units if key[0] == file and key[1] <= line <= key[2]]
            if held:
                reached.add(max(held))  # the innermost: a method, not its class
    for cls in made:
        reached.update(named[key] for base in cls.__mro__
                       if (key := (base.__module__, base.__qualname__)) in named)
    for key in list(reached):  # the classes of every method that ran
        module, name, _ = units[key]
        parts = name.split(".")
        reached.update(named[(module, ".".join(parts[:i]))] for i in range(1, len(parts)))

    unreached = []
    for key in sorted(units):
        module, name, lines = units[key]
        obj = lookup(module, name)
        if key not in reached and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            unreached.append((module, name, lines))
            print(module, name, lines)
    print(f"{len(unreached)} definitions that no digest run reaches, "
          f"{sum(lines for _, _, lines in unreached)} lines")


if __name__ == "__main__":
    main(sys.argv[1:])
