"""The fixture code that ``delpezzo3.fixtures`` replaced, kept to check
it against: the ``expand:`` chain family read by three regular
expressions and string surgery, the (a,b,c,d) table line read field by
field, and the (a,b,c,d) family decided by substituting each point and
running ``width_check`` on it."""

import re

from delpezzo3 import fixtures, notation
from delpezzo3.boundary import width_check
from delpezzo3.chains import chains_with_discriminant


def chain_family(spec: str):
    """Chains matching an "expand:" directive."""
    spec = spec.replace(" ", "")
    exclude_rep = "T!=(2)_l" in spec
    spec = spec.replace(",T!=(2)_l", "").replace("T!=(2)_l", "")
    chains = []
    m = re.fullmatch(r"d\(T\)<=(\d+)", spec)
    if m:
        for d in range(2, int(m.group(1)) + 1):
            chains.extend(chains_with_discriminant(d))
    else:
        m = re.fullmatch(r"d\(T\)=(\d+)", spec)
        if m:
            chains = chains_with_discriminant(int(m.group(1)))
        else:
            m = re.fullmatch(r"d\(T\)in\{([\d,]+)\}", spec)
            if not m:
                raise ValueError(f"bad expand directive {spec!r}")
            for d in (int(x) for x in m.group(1).split(",")):
                chains.extend(chains_with_discriminant(d))
    if exclude_rep:
        chains = [t for t in chains if any(w != 2 for w in t)]
    return sorted(chains, key=lambda t: (len(t), t))


def abcd_box(line: str):
    """The (lo, hi) bounds of one (a,b,c,d) table line, hi None for
    ``inf``.  It reads as many fields as the line has."""
    lo, hi = [], []
    for fieldtext in line.split():
        if ".." in fieldtext:
            a, b = fieldtext.split("..")
            lo.append(int(a))
            hi.append(None if b == "inf" else int(b))
        else:
            lo.append(int(fieldtext))
            hi.append(int(fieldtext))
    return tuple(lo), tuple(hi)


def abcd_table(text: str):
    """The (lo, hi) bounds of each line of an (a,b,c,d) table file."""
    return [abcd_box(line.strip()) for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]


def abcd_passes(a, b, c, d):
    """The width-3 verdict of ``fixtures._ABCD_EXPR`` at (a, b, c, d), by
    ``width_check`` on the substituted type."""
    dec = notation.substitute(fixtures._abcd_expr(), {"a": a, "b": b, "c": c, "d": d})
    res = width_check(dec)
    return res is not None and res.satisfied


def abcd_enumerate(cap):
    """``fixtures.abcd_enumerate``'s scan of [2,cap]^4 with this module's
    ``abcd_passes``: each axis until its first failure."""
    out = set()
    for a in range(2, cap + 1):
        b_seen = False
        for b in range(2, cap + 1):
            if (a, b) == (2, 2):
                continue
            c_seen = False
            for c in range(2, cap + 1):
                d_count = 0
                for d in range(2, cap + 1):
                    if abcd_passes(a, b, c, d):
                        out.add((a, b, c, d))
                        d_count += 1
                    else:
                        break
                if d_count:
                    c_seen = True
                else:
                    break
            if c_seen:
                b_seen = True
            elif b > 2:
                break
        if not b_seen and a > 3:
            break
    return out
