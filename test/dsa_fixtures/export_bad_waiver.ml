let orphan x = x
