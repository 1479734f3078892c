from addcomb.primes import divisors, is_prime, primes_upto


def test_is_prime_agrees_with_the_sieve():
    sieve = set(primes_upto(10**5))
    assert [n for n in range(10**5 + 1) if is_prime(n)] == sorted(sieve)


def test_is_prime_past_the_trial_divisors():
    # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # takes the Miller-Rabin composite exit at a later witness
    assert not is_prime(3215031751)
    assert is_prime(2**31 - 1)
    assert not is_prime(-7) and not is_prime(0) and not is_prime(1)


def test_primes_upto_small_bounds():
    assert primes_upto(1) == [] and primes_upto(0) == []
    assert primes_upto(2) == [2] and primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_divisors_against_brute_force():
    for n in range(1, 501):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
