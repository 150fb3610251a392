from oracle_digest import context_set, digest


def test_the_digest_is_a_pure_function_of_the_context_set():
    first = digest(context_set(1))
    assert len(first) == 64 and int(first, 16) >= 0
    assert digest(context_set(1)) == first
