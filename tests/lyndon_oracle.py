"""The free graded Lie dimensions counted by listing every Lyndon word, as
`deformation.FreeGradedLie` counted them before the graded Witt formula:
kept as an exact oracle for its counts."""


def lyndon_words(alphabet_size, max_len):
    """All Lyndon words over 0..alphabet_size-1 up to max_len (Duval)."""
    out = {length: [] for length in range(1, max_len + 1)}
    if alphabet_size == 0 or max_len == 0:
        return out
    w = [0]
    while w:
        if len(w) <= max_len:
            out[len(w)].append(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()
        if w:
            w[-1] += 1
    for length in out:
        out[length].sort()
    return out


def counts(degrees, cap):
    """{length: {degree: number of Lyndon words}} for generators of the
    given degrees, lengths 1..cap, listing only the degrees that occur."""
    out = {}
    for length, words in lyndon_words(len(degrees), cap).items():
        row = out[length] = {}
        for w in words:
            d = sum(degrees[i] for i in w)
            row[d] = row.get(d, 0) + 1
    return out
