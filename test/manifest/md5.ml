(* Print the MD5 digest of stdin in hex: the manifest pins a trace of
   megabytes by its digest. *)
let () =
  set_binary_mode_in stdin true;
  print_endline (Digest.to_hex (Digest.channel stdin (-1)))
