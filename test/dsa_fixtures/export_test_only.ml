let probe () = 42
