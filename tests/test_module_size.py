"""Every module of manna stays under 4,096 tokens.

Where bytecode is not cached, every process compiles every module it
imports, and the largest module's compile peak is part of the process's
peak memory.  That peak grows with the module's token count, and the
parser's token array doubles at 4,096 tokens: a step of about 230 KB.
Tokens are counted as the parser sees them, without comments and blank
lines.
"""

import io
import tokenize
from pathlib import Path

import pytest

import manna

MODULES = sorted(Path(manna.__file__).parent.glob("*.py"))


def token_count(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_is_under_4096_tokens(path):
    assert token_count(path) < 4096
