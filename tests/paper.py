"""The source paper's literal data, kept once for every test that needs it.

The final descent table rows live in the library as
``censym.verify.T_ROWS_FROZEN``, since ``censym verify`` checks them too.
"""

# the worked example of phi: a member of C_16(123) and its Dyck prefix
PHI_FIGURE = ("11 16 15 9 7 14 13 12 5 4 3 10 8 2 1 6", "UUUUUUDDDUUDUDDD")
# the worked example of phi_inverse: a Dyck prefix and its preimage
PHI_INVERSE_FIGURE = ("UUUDDUUUUUUDDUUD", "14 16 8 15 13 7 6 12 5 11 10 4 2 9 1 3")

# the listed centrosymmetric 132-avoiders of lengths 6 and 7, one digit a value
C6_132 = {
    tuple(map(int, word))
    for word in "123456 456123 563412 564312 623451 645231 653421 654321".split()
}
C7_132 = {
    tuple(map(int, word))
    for word in (
        "1234567 5674123 6734512 6754312 7234561 7564231 7634521 7654321".split()
    )
}
