"""The README's Library block, run as written: each trailing comment is the
value its line shows, what it prints for a print call and its value's str
otherwise."""
import contextlib
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_lines():
    """(code, trailing comment or None) for each line of the Library block."""
    block = README.read_text().split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        tokens = tokenize.generate_tokens(io.StringIO(line).readline)
        comment = next((token for token in tokens if token.type == tokenize.COMMENT), None)
        if comment is None:
            yield line, None
        else:
            yield line[:comment.start[1]].strip(), comment.string[1:].strip()


def test_library_example_shows_its_values():
    namespace: dict = {}
    shown = 0
    for code, comment in library_lines():
        if not code:
            continue
        if comment is None:
            exec(code, namespace)
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            value = eval(code, namespace)
        text = out.getvalue().rstrip("\n") if code.startswith("print(") else str(value)
        assert (code, text) == (code, comment)
        shown += 1
    assert shown == 3
