let with_ name f =
  if Sink.enabled () then begin
    Sink.record (Event.Span_begin name);
    (* [Gc.minor_words] counts the minor heap's current fill, which
       [quick_stat] adds only at the next minor collection. *)
    let minor_before = Gc.minor_words () and before = Gc.quick_stat () in
    let finish () =
      let minor_after = Gc.minor_words () and after = Gc.quick_stat () in
      Sink.record
        (Event.Gc_delta
           {
             span = name;
             minor_words = minor_after -. minor_before;
             major_words = after.Gc.major_words -. before.Gc.major_words;
             promoted_words = after.Gc.promoted_words -. before.Gc.promoted_words;
             heap_words = after.Gc.heap_words - before.Gc.heap_words;
             compactions = after.Gc.compactions - before.Gc.compactions;
           });
      Sink.record (Event.Span_end name)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end
  else f ()
