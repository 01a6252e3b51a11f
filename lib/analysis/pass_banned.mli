(** A005 and A006 — banned-value passes, resolved through opens, module
    aliases and shadowing. AST successors of token rules R003/R004.

    - [magic] (A005): [Obj.magic] anywhere.
    - [console] (A006): [print_string], [print_endline],
      [print_newline], [Printf.printf] and [Format.printf] in [lib/]. *)

val magic : Registry.pass
val console : Registry.pass
