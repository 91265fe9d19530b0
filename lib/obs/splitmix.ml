let gamma = 0x9e3779b97f4a7c15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let nth seed n = mix64 (Int64.add seed (Int64.mul (Int64.of_int (n + 1)) gamma))
