"""The fixture readers that ``delpezzo3.fixtures`` replaced, kept to check
the one-grammar readers against: the ``expand:`` chain family read by
three regular expressions and string surgery, and the (a,b,c,d) table
line read field by field."""

import re

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
